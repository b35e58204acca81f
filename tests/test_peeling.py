"""Tests for graph sampling, the peeling kernel, and the Monte-Carlo harness."""

import logging
import math
import os
import types

import numpy as np
import pytest

from scaling_lens import _peel_py
from scaling_lens.degree import DegreeModel
from scaling_lens.peeling import (
    BipartiteGraph,
    BudgetExceeded,
    dump_graph,
    is_stopping_set,
    mc_expected_learned,
    mc_parent_graph_erasure,
    peel,
    resolve_threads,
    sample_graph,
)
from scaling_lens.peeling import _reverse_csr, _sample_with_rng, _trial_rng
from scaling_lens.threshold import bit_erasure_rate, find_threshold


def graph_from_rows(n_concepts, rows):
    """Build a graph directly from per-text neighbor lists."""
    indices = np.array([r for row in rows for r in row], dtype=np.int64)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    return BipartiteGraph(
        n_concepts=n_concepts,
        n_texts=len(rows),
        p=0.0,
        seed=0,
        indptr=indptr,
        indices=indices,
    )


def exhaustive_fixpoint(graph, unknown=None):
    """Order-free reference: rescan all texts until nothing new is learnable.

    Tries every text on every sweep, so it visits every peel order's
    union; the returned unknown set is the maximal stopping set.
    """
    live = (
        set(range(graph.n_concepts))
        if unknown is None
        else set(np.flatnonzero(np.asarray(unknown)).tolist())
    )
    texts = [set(graph.text_neighbors(t).tolist()) for t in range(graph.n_texts)]
    changed = True
    while changed:
        changed = False
        for members in texts:
            hit = members & live
            if len(hit) == 1:
                live -= hit
                changed = True
    return live


def run_numpy_kernel(graph, unknown):
    """Run the numpy kernel on counters built row by row from the graph.

    Returns (count, learned, cnt, ssum) after peeling.
    """
    unknown = np.asarray(unknown).astype(bool)
    rows = [graph.text_neighbors(t) for t in range(graph.n_texts)]
    cnt = np.array([unknown[row].sum() for row in rows], dtype=np.int64)
    ssum = np.array([row[unknown[row]].sum() for row in rows], dtype=np.int64)
    learned = np.zeros(graph.n_concepts, dtype=np.uint8)
    rev_indptr, rev_indices = graph.reverse_csr()
    n = _peel_py.peel_kernel(rev_indptr, rev_indices, cnt, ssum, learned)
    return n, learned, cnt, ssum


def assert_final_counters(graph, unknown, learned, cnt, ssum):
    """cnt/ssum count and sum exactly the unknown neighbors left unlearned."""
    residual = np.asarray(unknown).astype(bool) & (learned == 0)
    for t in range(graph.n_texts):
        row = graph.text_neighbors(t)
        assert cnt[t] == residual[row].sum()
        assert ssum[t] == row[residual[row]].sum()


def random_order_peel(graph, rng):
    """Peel by picking a uniformly random eligible text each step."""
    live = set(range(graph.n_concepts))
    texts = [set(graph.text_neighbors(t).tolist()) for t in range(graph.n_texts)]
    while True:
        eligible = [t for t, members in enumerate(texts) if len(members & live) == 1]
        if not eligible:
            return live
        t = eligible[int(rng.integers(len(eligible)))]
        live -= texts[t] & live


class TestSampleGraph:
    def test_zero_probability_gives_empty_graph(self):
        g = sample_graph(R=7, T=5, p=0.0, seed=1)
        assert g.n_edges == 0

    def test_unit_probability_gives_complete_graph(self):
        g = sample_graph(R=3, T=2, p=1.0, seed=1)
        assert g.n_edges == 6
        for t in range(2):
            assert sorted(g.text_neighbors(t).tolist()) == [0, 1, 2]

    def test_edge_count_concentrates(self):
        """R=T=1000 at p=6e-3: binomial mean 6000, sigma ~ 77, allow 4 sigma."""
        g = sample_graph(R=1000, T=1000, p=6e-3, seed=123)
        sigma = np.sqrt(1000 * 1000 * 6e-3 * (1 - 6e-3))
        assert abs(g.n_edges - 6000) < 4 * sigma

    def test_same_seed_same_graph(self):
        a = sample_graph(R=40, T=60, p=0.1, seed=77)
        b = sample_graph(R=40, T=60, p=0.1, seed=77)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        c = sample_graph(R=40, T=60, p=0.1, seed=78)
        assert not (
            np.array_equal(a.indptr, c.indptr) and np.array_equal(a.indices, c.indices)
        )

    def test_no_texts_is_legal(self):
        g = sample_graph(R=5, T=0, p=0.5, seed=1)
        assert g.n_edges == 0
        assert peel(g).iterations == 0

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            sample_graph(R=10**6, T=10**6, p=0.5, seed=0)
        with pytest.raises(ValueError):
            sample_graph(R=10, T=10, p=1.5, seed=0)
        with pytest.raises(ValueError):
            sample_graph(R=0, T=10, p=0.5, seed=0)

    def test_dump_format(self):
        g = graph_from_rows(3, [[0, 2], []])
        text = dump_graph(g)
        lines = text.splitlines()
        assert lines[0].startswith("R=3 T=2")
        assert lines[1] == "t 0: 0 2"
        assert lines[2] == "t 1:"


class TestPeel:
    def test_single_edge_learns_single_concept(self):
        g = graph_from_rows(1, [[0]])
        out = peel(g)
        assert out.learned == frozenset({0})
        assert out.unlearned_count == 0

    def test_two_by_two_stopping_set(self):
        """Two texts over the same two concepts never expose a degree-1 text."""
        g = graph_from_rows(2, [[0, 1], [0, 1]])
        out = peel(g)
        assert out.learned == frozenset()
        assert out.unlearned_count == 2
        assert is_stopping_set(g, np.array([1, 1], dtype=np.uint8))

    def test_cascade(self):
        # text 0 teaches concept 0, which unlocks concept 1 through text 1
        g = graph_from_rows(2, [[0], [0, 1]])
        out = peel(g)
        assert out.learned == frozenset({0, 1})
        assert out.iterations == 2

    def test_known_neighbors_count_as_help(self):
        # concept 1 already known, so the two-concept text is degree 1
        g = graph_from_rows(2, [[0, 1]])
        out = peel(g, unknown=np.array([1, 0], dtype=np.uint8))
        assert out.learned == frozenset({0})

    def test_mask_shape_checked(self):
        g = graph_from_rows(2, [[0, 1]])
        with pytest.raises(ValueError):
            peel(g, unknown=np.array([1, 0, 1], dtype=np.uint8))

    @pytest.mark.parametrize("value", [2, -1])
    def test_every_nonzero_mask_entry_is_unknown(self, value):
        # text 0 holds concept 0 alone, so the unknown concept 0 is learned
        g = graph_from_rows(2, [[0]])
        out = peel(g, [value, 0])
        assert out.learned == frozenset({0})
        assert out.unlearned_count == 0

    def test_matches_exhaustive_fixpoint_on_random_graphs(self):
        """100 random 12x18 graphs: kernel output equals the rescan oracle."""
        rng = np.random.default_rng(2024)
        for i in range(100):
            p = float(rng.uniform(0.05, 0.35))
            g = sample_graph(R=12, T=18, p=p, seed=int(rng.integers(2**32)))
            expected_unknown = exhaustive_fixpoint(g)
            out = peel(g)
            got_unknown = set(range(12)) - set(out.learned)
            assert got_unknown == expected_unknown

    def test_confluence_under_random_orders(self):
        """Any processing order reaches the same residual set."""
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = float(rng.uniform(0.05, 0.35))
            g = sample_graph(R=12, T=18, p=p, seed=int(rng.integers(2**32)))
            reference = random_order_peel(g, rng)
            for _ in range(19):
                assert random_order_peel(g, rng) == reference
            kernel_unknown = set(range(12)) - set(peel(g).learned)
            assert kernel_unknown == reference

    def test_residual_is_stopping_set(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            g = sample_graph(
                R=30, T=45, p=float(rng.uniform(0.02, 0.2)), seed=int(rng.integers(2**32))
            )
            out = peel(g)
            residual = np.logical_not(out.learned_mask.astype(bool))
            assert is_stopping_set(g, residual)

    def test_adding_texts_never_shrinks_learned_set(self):
        """Superset property over 100 random graph pairs."""
        rng = np.random.default_rng(31)
        for _ in range(100):
            R = int(rng.integers(5, 25))
            T = int(rng.integers(3, 30))
            g = sample_graph(R=R, T=T, p=float(rng.uniform(0.05, 0.4)), seed=int(rng.integers(2**32)))
            extra = rng.permutation(R)[: int(rng.integers(0, R + 1))]
            rows = [g.text_neighbors(t).tolist() for t in range(T)] + [sorted(extra.tolist())]
            bigger = graph_from_rows(R, rows)
            assert peel(g).learned <= peel(bigger).learned


class TestNumpyKernel:
    def test_partial_masks_match_exhaustive_fixpoint(self):
        """200 seeded random graphs with partial unknown masks."""
        rng = np.random.default_rng(77)
        for _ in range(200):
            R = int(rng.integers(1, 30))
            T = int(rng.integers(0, 40))
            p = float(rng.uniform(0.02, 0.4))
            g = sample_graph(R=R, T=T, p=p, seed=int(rng.integers(2**32)))
            unknown = (rng.random(R) < rng.uniform(0.2, 1.0)).astype(np.uint8)
            n, learned, cnt, ssum = run_numpy_kernel(g, unknown)
            expected = set(np.flatnonzero(unknown).tolist()) - exhaustive_fixpoint(g, unknown)
            assert set(np.flatnonzero(learned).tolist()) == expected
            assert peel(g, unknown).learned == expected
            assert n == int(learned.sum())
            assert_final_counters(g, unknown, learned, cnt, ssum)
            # no mask skips the edge filter; it must equal an all-ones mask
            full, ones = peel(g), peel(g, np.ones(R))
            assert np.array_equal(full.learned_mask, ones.learned_mask)
            assert (full.iterations, full.unlearned_count) == (
                ones.iterations,
                ones.unlearned_count,
            )

    def test_concept_resolved_twice_in_one_round_counts_once(self):
        # texts 0 and 1 both name concept 0 in the first round; text 2
        # then names concept 1
        g = graph_from_rows(2, [[0], [0], [0, 1]])
        unknown = np.ones(2, dtype=np.uint8)
        n, learned, cnt, ssum = run_numpy_kernel(g, unknown)
        assert n == 2
        assert learned.tolist() == [1, 1]
        assert cnt.tolist() == [0, 0, 0]
        assert ssum.tolist() == [0, 0, 0]

    def test_path_learns_one_concept_per_round(self):
        """Text i needs concept i-1 first, so each round learns one concept."""
        n_path = 3000
        rows = [[0]] + [[i - 1, i] for i in range(1, n_path)]
        g = graph_from_rows(n_path, rows)
        unknown = np.ones(n_path, dtype=np.uint8)
        n, learned, cnt, ssum = run_numpy_kernel(g, unknown)
        assert n == n_path
        assert learned.all()
        assert not cnt.any() and not ssum.any()

    def test_empty_and_complete_graphs(self):
        empty = sample_graph(R=5, T=0, p=0.5, seed=1)
        n, learned, cnt, ssum = run_numpy_kernel(empty, np.ones(5, dtype=np.uint8))
        assert n == 0 and not learned.any() and cnt.size == ssum.size == 0
        full = sample_graph(R=4, T=3, p=1.0, seed=1)
        n, learned, cnt, ssum = run_numpy_kernel(full, np.ones(4, dtype=np.uint8))
        assert n == 0 and cnt.tolist() == [4, 4, 4] and ssum.tolist() == [6, 6, 6]
        one_unknown = np.array([0, 0, 1, 0], dtype=np.uint8)
        n, learned, cnt, ssum = run_numpy_kernel(full, one_unknown)
        assert n == 1 and learned.tolist() == [0, 0, 1, 0]
        assert_final_counters(full, one_unknown, learned, cnt, ssum)
        single = sample_graph(R=1, T=5, p=1.0, seed=1)
        assert run_numpy_kernel(single, np.ones(1, dtype=np.uint8))[0] == 1

    def test_reverse_csr_matches_stable_argsort(self):
        rng = np.random.default_rng(12)
        graphs = [
            sample_graph(R=7, T=0, p=0.5, seed=1),
            sample_graph(R=5, T=9, p=1.0, seed=1),
            graph_from_rows(4, [[], [3], [], [0, 1, 3]]),
        ]
        for _ in range(50):
            R = int(rng.integers(1, 60))
            T = int(rng.integers(0, 90))
            p = float(rng.uniform(0.0, 0.5))
            graphs.append(sample_graph(R=R, T=T, p=p, seed=int(rng.integers(2**32))))
        for g in graphs:
            text_ids = np.repeat(np.arange(g.n_texts, dtype=np.int64), np.diff(g.indptr))
            # the whole graph, then the edges of a random subset of its concepts
            some = (rng.random(g.n_concepts) < 0.5)[g.indices]
            sub_text, sub_concept = text_ids[some], g.indices[some]
            for text, concept, (rev_indptr, rev_indices) in [
                (text_ids, g.indices, g.reverse_csr()),
                (sub_text, sub_concept, _reverse_csr(g.n_concepts, g.n_texts, sub_text, sub_concept)),
            ]:
                counts = np.bincount(concept, minlength=g.n_concepts)
                assert rev_indptr.dtype == rev_indices.dtype == np.int64
                assert rev_indices.flags.c_contiguous
                assert np.array_equal(rev_indptr, np.concatenate([[0], np.cumsum(counts)]))
                assert np.array_equal(rev_indices, text[np.argsort(concept, kind="stable")])


class TestIsStoppingSet:
    def test_empty_set_is_stopping(self):
        g = graph_from_rows(3, [[0, 1], [2]])
        assert is_stopping_set(g, np.zeros(3, dtype=bool))

    def test_single_exposed_concept_is_not(self):
        g = graph_from_rows(3, [[0, 1], [2]])
        assert not is_stopping_set(g, np.array([0, 0, 1], dtype=bool))

    def test_pairwise_covered_is_stopping(self):
        g = graph_from_rows(3, [[0, 1], [2]])
        assert is_stopping_set(g, np.array([1, 1, 0], dtype=bool))

    @pytest.mark.parametrize("length", [1, 4])
    def test_mask_length_checked(self, length):
        g = graph_from_rows(2, [[0]])
        with pytest.raises(ValueError, match="one entry per concept"):
            is_stopping_set(g, np.ones(length, dtype=bool))


class TestMcExpectedLearned:
    def test_sparse_text_side_bound(self):
        """With 10 texts of mean degree 1, at most ~10 concepts are reachable."""
        mc = mc_expected_learned(R=1000, T=10, d_t=1.0, trials=200, seed=3)
        assert 0.0 < mc.mean <= 10.0

    def test_no_texts_means_zero(self):
        mc = mc_expected_learned(R=50, T=0, d_t=1.0, trials=10, seed=3)
        assert mc.mean == 0.0
        assert mc.stderr == 0.0

    def test_first_trial_matches_sample_graph(self):
        g = sample_graph(R=80, T=120, p=3.0 / 80, seed=99)
        direct = float(peel(g).iterations)
        mc = mc_expected_learned(R=80, T=120, d_t=3.0, trials=1, seed=99)
        assert mc.mean == direct

    def test_matches_analytic_prediction(self):
        """MC mean vs R*(1 - P_b/eps) from the threshold law at (200, 400, 4).

        The law carries O(1/sqrt(R)) corrections, so when the 3-sigma gate
        fails the tolerance widens to 10 percent relative, logged.
        """
        model = DegreeModel(R=200, T=400, d_t=4.0, epsilon=0.5)
        sol = find_threshold(model)
        pb = bit_erasure_rate(model, sol)
        predicted = 200 * (1.0 - pb / 0.5)
        mc = mc_expected_learned(R=200, T=400, d_t=4.0, trials=2000, seed=5)
        if abs(mc.mean - predicted) > 3 * mc.stderr:
            logging.getLogger(__name__).info(
                "3-sigma gate failed (|%.3f - %.3f| > %.3f); using 10%% relative",
                mc.mean,
                predicted,
                3 * mc.stderr,
            )
            assert abs(mc.mean - predicted) / mc.mean < 0.10
        assert mc.trials == 2000

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            mc_expected_learned(R=10, T=10, d_t=1.0, trials=0, seed=1)
        with pytest.raises(ValueError):
            mc_expected_learned(R=10, T=10, d_t=1.0, trials=10, seed=-1)


class TestMcParentGraphErasure:
    def test_no_texts_leaves_everything_stuck(self):
        # at eps = 1 the parent graph is fully erased, so pb saturates at 1
        duck = types.SimpleNamespace(R=8, T=0, epsilon=1.0, p=0.3)
        mc = mc_parent_graph_erasure(duck, trials=4, seed=9)
        assert mc.mean == 1.0

    def test_empty_erasure_set_has_no_stuck_bits(self):
        # the eps parametrization always erases >= R concepts, so the
        # 0-erased degenerate case is exercised through the masked kernel
        g = sample_graph(R=20, T=30, p=0.1, seed=4)
        out = peel(g, unknown=np.zeros(20, dtype=np.uint8))
        assert out.unlearned_count == 0
        assert out.iterations == 0

    def test_rate_normalization(self):
        """Reported rate is stuck bits over all parent concepts, bounded by eps."""
        model = DegreeModel(R=100, T=150, d_t=4.0, epsilon=0.5)
        mc = mc_parent_graph_erasure(model, trials=100, seed=21)
        assert np.all(mc.values >= 0.0)
        assert np.all(mc.values <= 0.5 + 1e-12)

    def test_near_threshold_law_agreement_is_in_threshold_suite(self):
        """Cross-module law validation lives in the threshold tests; here the
        run only has to be reproducible."""
        model = DegreeModel(R=100, T=300, d_t=4.0, epsilon=0.5)
        a = mc_parent_graph_erasure(model, trials=50, seed=13)
        b = mc_parent_graph_erasure(model, trials=50, seed=13)
        assert np.array_equal(a.values, b.values)


class TestTrialPath:
    def test_trial_values_equal_peel_on_the_same_draws(self):
        """Each trial's value equals peel() on the graph and mask its rng draws."""
        rng = np.random.default_rng(808)
        trials = 4
        for _ in range(25):
            R = int(rng.integers(1, 40))
            T = int(rng.integers(0, 60))
            d_t = float(rng.uniform(0.2, min(6.0, R)))
            eps = float(rng.uniform(0.05, 1.0))
            seed = int(rng.integers(2**32))
            p = d_t / R
            learned = mc_expected_learned(R, T, d_t, trials, seed, threads=1)
            model = types.SimpleNamespace(R=R, T=T, epsilon=eps, p=p)
            erasure = mc_parent_graph_erasure(model, trials, seed, threads=1)
            n_parent = math.ceil(R / eps)
            n_erased = math.floor(eps * n_parent)
            for i in range(trials):
                g = _sample_with_rng(_trial_rng(seed, i), R, T, p, seed)
                assert learned.values[i] == peel(g).iterations
                trial_rng = _trial_rng(seed, i)
                g = _sample_with_rng(trial_rng, n_parent, T, p, seed)
                unknown = np.zeros(n_parent, dtype=bool)
                unknown[trial_rng.permutation(n_parent)[:n_erased]] = True
                assert erasure.values[i] == peel(g, unknown).unlearned_count / n_parent


class TestDeterminism:
    def test_thread_count_does_not_change_values(self):
        one = mc_expected_learned(R=100, T=200, d_t=4.0, trials=60, seed=17, threads=1)
        four = mc_expected_learned(R=100, T=200, d_t=4.0, trials=60, seed=17, threads=4)
        assert np.array_equal(one.values, four.values)

    def test_parent_graph_thread_invariance(self):
        model = DegreeModel(R=80, T=160, d_t=4.0, epsilon=0.5)
        one = mc_parent_graph_erasure(model, trials=40, seed=23, threads=1)
        four = mc_parent_graph_erasure(model, trials=40, seed=23, threads=4)
        assert np.array_equal(one.values, four.values)

    def test_env_threads_fallback(self, monkeypatch):
        monkeypatch.setenv("SCALING_LENS_THREADS", "3")
        assert resolve_threads(None) == 3
        assert resolve_threads(2) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.setenv("SCALING_LENS_THREADS", "0")
        assert resolve_threads(None) == 5
        assert resolve_threads(0) == 5
        monkeypatch.setenv("SCALING_LENS_THREADS", "two")
        with pytest.raises(ValueError):
            resolve_threads(None)
        with pytest.raises(ValueError):
            resolve_threads(-1)

