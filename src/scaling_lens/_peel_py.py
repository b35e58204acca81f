"""Round-parallel numpy peeling kernel, used when the compiled extension is absent.

Same contract as ``scaling_lens._peel.peel_kernel``: operates on the
reverse (concept -> texts) CSR adjacency plus per-text counters of
unknown neighbors and sums of their ids.  When a text's counter is 1 the
sum IS the id of its unique unknown neighbor.  Each round learns the
concepts of all such texts at once (the parallel schedule of Luby et
al., IEEE Trans. IT 2001) and updates the counters over their edges by
``bincount``; total work is O(edges) plus a per-round cost.  Peeling is
confluent, so both kernels leave identical outputs.
"""

import numpy as np


def peel_kernel(rev_indptr, rev_indices, cnt, ssum, learned, stack):
    """Peel to completion in place; returns the number of concepts learned.

    ``stack`` (the compiled kernel's scratch) is left untouched.
    """
    n_texts = cnt.shape[0]
    ready = np.flatnonzero(cnt == 1)
    n_peeled = 0
    while ready.size:
        # several ready texts may name the same concept: learn it once
        r = np.unique(ssum[ready])
        learned[r] = 1
        n_peeled += r.size
        starts = rev_indptr[r]
        lens = rev_indptr[r + 1] - starts
        ends = np.cumsum(lens)
        edges = np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)
        t = rev_indices[edges]
        cnt -= np.bincount(t, minlength=n_texts)
        # float64 holds id sums exactly here (everything stays far below 2^53)
        ssum -= np.bincount(
            t, weights=np.repeat(r, lens), minlength=n_texts
        ).astype(np.int64)
        # a text at 1 now was touched this round: every ready text's
        # concept was learned, so its own count fell to 0
        ready = t[cnt[t] == 1]
    return n_peeled
