# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled peeling kernel.

Same contract as scaling_lens._peel_py.peel_kernel, but peels one text
at a time from a stack.  All buffers are caller-allocated:

- rev_indptr/rev_indices: reverse CSR (concept -> incident texts)
- cnt[t]:  number of unknown, unlearned neighbors of text t
- ssum[t]: sum of their concept ids
- learned: zeroed uint8 output mask over concepts
- stack:   int64 scratch, at least n_texts + 1 entries

A text enters the stack at most once at init (cnt == 1) or once on a
downward transition to cnt == 1, so n_texts + 1 slots suffice.
"""


def peel_kernel(const long long[::1] rev_indptr,
                const long long[::1] rev_indices,
                long long[::1] cnt,
                long long[::1] ssum,
                unsigned char[::1] learned,
                long long[::1] stack):
    cdef Py_ssize_t n_texts = cnt.shape[0]
    cdef Py_ssize_t sp = 0
    cdef Py_ssize_t t, t2, k
    cdef long long r
    cdef long long n_peeled = 0

    with nogil:
        for t in range(n_texts):
            if cnt[t] == 1:
                stack[sp] = t
                sp += 1
        while sp > 0:
            sp -= 1
            t = <Py_ssize_t>stack[sp]
            if cnt[t] != 1:
                continue
            r = ssum[t]
            learned[<Py_ssize_t>r] = 1
            n_peeled += 1
            for k in range(<Py_ssize_t>rev_indptr[r], <Py_ssize_t>rev_indptr[r + 1]):
                t2 = <Py_ssize_t>rev_indices[k]
                cnt[t2] -= 1
                ssum[t2] -= r
                if cnt[t2] == 1:
                    stack[sp] = t2
                    sp += 1

    return int(n_peeled)
