"""Monte-Carlo peeling over random bipartite text-concept graphs.

A graph has R concept nodes and T text nodes; each of the R*T pairs is
an edge independently with probability p.  Peeling repeatedly finds a
text with exactly one unknown concept and learns that concept.  The
process is confluent: the final learned set does not depend on the
order in which eligible texts are processed, so any two correct
implementations agree exactly, and the residual unknown concepts always
form a stopping set (no text sees exactly one of them).

The inner loop is ``_peel_py.peel_kernel``, which peels in parallel
rounds: each round learns the concept of every text with exactly one
unknown neighbour.

Sampling draws edge positions on the flattened T*R grid by geometric
gap skipping, which reproduces i.i.d. Bernoulli(p) cells exactly in
O(edges) time.  Each gap is ceil(E / -log1p(-p)) for a standard
exponential draw E: inversion of the geometric distribution, exact for
every p.  Every trial owns a counter-based RNG keyed by
(seed, trial), so results are reproducible and independent of the
thread count; trial 0 of a Monte-Carlo run sees the same graph as
``sample_graph(R, T, p, seed)``.

A Monte-Carlo trial builds no graph object: it splits its sampled cells
into (text, concept) edge arrays and peels straight from them.  The
counters and the reverse CSR take only the edges of unknown concepts:
a known concept is never learned, because the per-text id sums cover
only unknown neighbours, so its reverse-CSR row would never be read.
The reverse CSR sorts one packed (concept, text) key per edge, 32 bits
wide whenever the grid allows.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _peel_py
from ._check import count_in, in_range

__all__ = [
    "THREADS_ENV",
    "MAX_EXPECTED_EDGES",
    "BipartiteGraph",
    "BudgetExceeded",
    "MCStats",
    "PeelingOutcome",
    "dump_graph",
    "is_stopping_set",
    "mc_expected_learned",
    "mc_parent_graph_erasure",
    "peel",
    "resolve_threads",
    "sample_graph",
]

MAX_EXPECTED_EDGES = 1e8

THREADS_ENV = "SCALING_LENS_THREADS"


class BudgetExceeded(RuntimeError):
    """Expected edge count is past MAX_EXPECTED_EDGES."""


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument, else SCALING_LENS_THREADS, else every core.

    0 from either source also means every core.  Raises ValueError for a
    negative count or an environment value that is not an integer.
    """
    if threads is None:
        env = os.environ.get(THREADS_ENV, "")
        try:
            threads = int(env) if env else 0
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
    count_in("threads", threads, 0)
    return threads or os.cpu_count() or 1


@dataclass(frozen=True)
class BipartiteGraph:
    """Text-concept adjacency in CSR form (texts are the rows)."""

    n_concepts: int
    n_texts: int
    p: float
    seed: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    @property
    def n_edges(self) -> int:
        return int(self.indices.shape[0])

    def text_neighbors(self, t: int) -> np.ndarray:
        return self.indices[self.indptr[t]:self.indptr[t + 1]]

    def text_ids(self) -> np.ndarray:
        """The text of every edge, in CSR order."""
        return np.repeat(np.arange(self.n_texts, dtype=np.int64), np.diff(self.indptr))

    def reverse_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Concept -> incident texts adjacency (texts ascending), built on demand."""
        return _reverse_csr(self.n_concepts, self.n_texts, self.text_ids(), self.indices)


def _reverse_csr(
    n_concepts: int, n_texts: int, text: np.ndarray, concept: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concept -> incident texts adjacency (texts ascending) of the edges (text, concept).

    Sorts the packed keys (concept << s) | text, s = (T - 1).bit_length(),
    so that a key orders by concept, then text.  They are sorted as uint32
    when R << s <= 2**32 (a 2000-concept, 6500-text trial packs to
    2000 << 13), else as int64, which needs R * 2**s < 2**63.  Returns
    int64 arrays.
    """
    shift = (n_texts - 1).bit_length()
    key = np.left_shift(concept, shift, dtype=np.int64)
    key |= text
    if n_concepts << shift <= 2**32:
        key = key.astype(np.uint32)
    key.sort()
    rev_indices = np.empty(key.shape[0], dtype=np.int64)
    np.bitwise_and(key, (1 << shift) - 1, out=rev_indices)
    rev_indptr = np.zeros(n_concepts + 1, dtype=np.int64)
    np.cumsum(np.bincount(concept, minlength=n_concepts), out=rev_indptr[1:])
    return rev_indptr, rev_indices


@dataclass(frozen=True)
class PeelingOutcome:
    learned_mask: np.ndarray
    iterations: int
    unlearned_count: int

    @property
    def learned(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.learned_mask).tolist())


@dataclass(frozen=True)
class MCStats:
    """Per-trial values with their mean and standard error."""

    mean: float
    stderr: float
    trials: int
    values: np.ndarray = field(repr=False)


def _check_seed(seed: int) -> int:
    return int(count_in("seed", seed, 0, 2**64, rule="fit in uint64"))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_positions(rng: np.random.Generator, n_cells: int, p: float) -> np.ndarray:
    """Sorted indices of the occupied cells of a Bernoulli(p) grid of size n_cells.

    Adds up geometric gaps, each ceil(E / -log1p(-p)) for a standard
    exponential draw E.  For p < 1/3 that is the inversion
    ``Generator.geometric`` runs, draw for draw, so both leave the same
    positions and the same generator state; numpy searches for p >= 1/3,
    where the draws differ but inversion stays exact.  A gap is clipped at
    n_cells + 1, past the grid, so that its int64 cast is defined.
    """
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_cells, dtype=np.int64)
    scale = -math.log1p(-p)
    expected = n_cells * p
    chunk = int(expected + 10.0 * math.sqrt(expected) + 32.0)
    pieces = []
    last = -1
    while last < n_cells:
        gap = rng.standard_exponential(size=chunk)
        gap /= scale
        np.ceil(gap, out=gap)
        np.minimum(gap, n_cells + 1, out=gap)
        # cast in place (float64 and int64 share a width): a second
        # gap-sized array per trial lifts the worker threads' peak RSS
        pos = gap.view(np.int64)
        pos[...] = gap
        np.cumsum(pos, out=pos)
        pos += last
        pieces.append(pos)
        last = int(pos[-1])
        chunk = max(1024, chunk // 8)
    out = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
    return out[:np.searchsorted(out, n_cells)]


def _sample_edges(
    rng: np.random.Generator, R: int, T: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """(text, concept) of each edge of G(R, T, p), in text-major cell order."""
    positions = _sample_positions(rng, T * R, p)
    text = positions // R
    # no temporary: a third edge-sized array per trial lifts the worker
    # threads' malloc high-water mark, and so the peak RSS
    concept = text * R
    np.subtract(positions, concept, out=concept)
    return text, concept


def _sample_with_rng(
    rng: np.random.Generator, R: int, T: int, p: float, seed: int
) -> BipartiteGraph:
    text, concept = _sample_edges(rng, R, T, p)
    indptr = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(np.bincount(text, minlength=T), out=indptr[1:])
    return BipartiteGraph(
        n_concepts=R,
        n_texts=T,
        p=float(p),
        seed=seed,
        indptr=indptr,
        indices=concept,
    )


def _check_budget(R: int, T: int, p: float) -> None:
    count_in("R", R, 1, rule="be a finite count of at least one concept")
    count_in("T", T, 0)  # T = 0 is legal: an empty text side peels nothing
    in_range("edge probability", p, 0, 1)
    if R * T * p > MAX_EXPECTED_EDGES:
        raise BudgetExceeded(
            f"expected edges R*T*p = {R * T * p:.3g} exceeds "
            f"{MAX_EXPECTED_EDGES:.0e}; reduce the instance size"
        )


def sample_graph(R: int, T: int, p: float, seed: int) -> BipartiteGraph:
    """Draw G(R, T, p): each text-concept pair is an edge w.p. p."""
    seed = _check_seed(seed)
    _check_budget(R, T, p)
    return _sample_with_rng(_trial_rng(seed, 0), R, T, p, seed)


def _peel_edges(
    n_concepts: int,
    n_texts: int,
    text: np.ndarray,
    concept: np.ndarray,
    unknown: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """Peel the graph with edges (text[i], concept[i]) from the bool mask ``unknown``.

    ``None`` means every concept starts unknown.  Returns the learned
    mask (uint8) and the number of concepts learned.  Only the edges of
    unknown concepts are kept: a known concept is never learned, because
    ``ssum`` sums only unknown neighbours, so its reverse-CSR row would
    never be read.
    """
    if unknown is not None:
        keep = np.flatnonzero(unknown.take(concept))
        text = text.take(keep)
        concept = concept.take(keep)
    cnt = np.bincount(text, minlength=n_texts)
    # float64 holds id sums exactly here (everything stays far below 2^53)
    ssum = np.bincount(text, weights=concept, minlength=n_texts).astype(np.int64)
    rev_indptr, rev_indices = _reverse_csr(n_concepts, n_texts, text, concept)
    learned = np.zeros(n_concepts, dtype=np.uint8)
    n_peeled = _peel_py.peel_kernel(rev_indptr, rev_indices, cnt, ssum, learned)
    return learned, int(n_peeled)


def _concept_mask(graph: BipartiteGraph, mask) -> np.ndarray:
    """Bool mask over concepts, true at every nonzero entry."""
    mask = np.asarray(mask) != 0
    if mask.shape != (graph.n_concepts,):
        raise ValueError("concept mask must have one entry per concept")
    return mask


def peel(graph: BipartiteGraph, unknown: np.ndarray | None = None) -> PeelingOutcome:
    """Peel to completion; by default every concept starts unknown.

    ``unknown`` may restrict the initially unknown set (a mask over
    concepts; every nonzero entry is unknown).  The returned iteration
    count equals the number of concepts learned; the residual unknowns
    form a stopping set.
    """
    if unknown is None:
        n_unknown = graph.n_concepts
    else:
        unknown = _concept_mask(graph, unknown)
        n_unknown = int(np.count_nonzero(unknown))
    learned, n_peeled = _peel_edges(
        graph.n_concepts, graph.n_texts, graph.text_ids(), graph.indices, unknown
    )
    return PeelingOutcome(
        learned_mask=learned,
        iterations=n_peeled,
        unlearned_count=n_unknown - n_peeled,
    )


def is_stopping_set(graph: BipartiteGraph, concept_mask: np.ndarray) -> bool:
    """True when no text has exactly one neighbor inside the mask."""
    edge_in = _concept_mask(graph, concept_mask)[graph.indices]
    per_text = np.bincount(graph.text_ids()[edge_in], minlength=graph.n_texts)
    return not np.any(per_text == 1)


def _run_trials(trial_fn, trials: int, threads: int | None) -> np.ndarray:
    """Evaluate trial_fn(i) for i in range(trials) into a fixed-order array.

    Values land at their trial index, so the aggregate is byte-identical
    for any thread count.
    """
    count_in("trials", trials, 1)
    n_workers = resolve_threads(threads)
    values = np.empty(trials, dtype=np.float64)
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        for i, v in zip(range(trials), pool.map(trial_fn, range(trials))):
            values[i] = v
    return values


def _stats(values: np.ndarray) -> MCStats:
    mean = float(np.mean(values))
    if values.size > 1:
        stderr = float(np.std(values, ddof=1) / math.sqrt(values.size))
    else:
        stderr = 0.0
    return MCStats(mean=mean, stderr=stderr, trials=int(values.size), values=values)


def mc_expected_learned(
    R: int,
    T: int,
    d_t: float,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> MCStats:
    """Monte-Carlo mean count of concepts learned from scratch.

    Graphs are G(R, T, p) with p = d_t / R; all R concepts start unknown.
    """
    seed = _check_seed(seed)
    # max(R, 1) defers R < 1 to _check_budget's ValueError
    p = d_t / max(R, 1)
    _check_budget(R, T, p)

    def one_trial(i: int) -> float:
        text, concept = _sample_edges(_trial_rng(seed, i), R, T, p)
        _, n_peeled = _peel_edges(R, T, text, concept, None)
        return float(n_peeled)

    return _stats(_run_trials(one_trial, trials, threads))


def mc_parent_graph_erasure(
    model,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> MCStats:
    """Unconditional stuck-bit fraction on the parent-graph experiment.

    The parent graph has ceil(R / epsilon) concepts of which a uniformly
    random floor(epsilon * n_parent) start unknown; each trial reports
    (unknown still unlearned after peeling) / n_parent.  This matches the
    density-evolution bit erasure normalization, which is also
    unconditional over decoding success.
    """
    seed = _check_seed(seed)
    n_parent = math.ceil(model.R / model.epsilon)
    n_erased = math.floor(model.epsilon * n_parent)
    p = model.p
    _check_budget(n_parent, model.T, p)

    def one_trial(i: int) -> float:
        rng = _trial_rng(seed, i)
        # the reference digests fix the draw order: gaps, then the permutation
        text, concept = _sample_edges(rng, n_parent, model.T, p)
        unknown = np.zeros(n_parent, dtype=bool)
        unknown[rng.permutation(n_parent)[:n_erased]] = True
        _, n_peeled = _peel_edges(n_parent, model.T, text, concept, unknown)
        return float(n_erased - n_peeled) / n_parent

    return _stats(_run_trials(one_trial, trials, threads))


def dump_graph(graph: BipartiteGraph) -> str:
    """Plain-text adjacency listing; one line per text."""
    lines = [
        f"R={graph.n_concepts} T={graph.n_texts} "
        f"p={graph.p:.17g} seed={graph.seed}"
    ]
    for t in range(graph.n_texts):
        neigh = " ".join(str(r) for r in graph.text_neighbors(t))
        lines.append(f"t {t}: {neigh}".rstrip())
    return "\n".join(lines) + "\n"
