"""Tests for skill-graph emergence: link bounds, giant components, plateaus."""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp
from scipy.stats import binom

from scaling_lens import emergence
from scaling_lens.emergence import (
    DegenerateBound,
    EmergenceCurve,
    LevelRow,
    SkillHierarchy,
    TaskSpec,
    TooFewPoints,
    accuracy_vs_compute,
    concept_pair_prob,
    detect_plateaus,
    gcc_fraction,
    lambert_w0,
    level_recursion,
    level_recursion_detail,
    skill_link_prob,
    task_accuracy,
    task_mixture_binomial,
)
from scaling_lens.optimizer import BudgetSpec, optimize_budget


def binomial_upper_tail(n, p, k0):
    """P(X >= k0) for X ~ Binomial(n, p) by direct summation.

    Sums the smaller side of the distribution in log space: summing all
    n terms loses ~1e-10 to gammaln round-off at n ~ 1e5, which matters
    when the tail is 1 minus something astronomically small.
    """

    def side(ks):
        logpmf = (
            gammaln(n + 1)
            - gammaln(ks + 1)
            - gammaln(n - ks + 1)
            + ks * math.log(p)
            + (n - ks) * math.log1p(-p)
        )
        return math.exp(logsumexp(logpmf))

    if k0 > n * p:
        return side(np.arange(k0, n + 1, dtype=np.float64))
    return 1.0 - side(np.arange(0, k0, dtype=np.float64))


def bisect_gcc(c, tol=1e-12):
    """Root of 1 - exp(-c g) - g on (0, 1] by bisection, independent of
    the Lambert-seeded solver."""
    lo, hi = tol, 1.0
    f = lambda g: 1.0 - math.exp(-c * g) - g
    assert f(lo) > 0 and f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestConceptPairProb:
    def test_no_texts(self):
        assert concept_pair_prob(10, 0, 2.0, 4) == 0.0

    def test_saturated_degree(self):
        # d_t = R: every text contains every concept
        assert concept_pair_prob(10, 3, 10.0, 4) == 1.0 / 16.0

    def test_matches_simulation(self):
        """Simulate the graph directly: per-text inclusion of each concept
        and uniform skill draws, never forming the closed-form product."""
        R, T, d_t, S = 10, 5, 2.0, 4
        closed = concept_pair_prob(R, T, d_t, S)
        rng = np.random.default_rng(314)
        trials = 10**6
        inc1 = rng.random((trials, T)) < d_t / R
        inc2 = rng.random((trials, T)) < d_t / R
        co = (inc1 & inc2).any(axis=1)
        hit = co & (rng.integers(0, S, trials) == 0) & (rng.integers(0, S, trials) == 0)
        mean = hit.mean()
        stderr = math.sqrt(mean * (1 - mean) / trials)
        assert abs(mean - closed) <= 3 * stderr

    def test_validation(self):
        with pytest.raises(ValueError):
            concept_pair_prob(10, 5, 11.0, 4)
        with pytest.raises(ValueError):
            concept_pair_prob(10, -1, 2.0, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["R", "T", "d_t"])
    def test_rejects_non_finite(self, field, bad):
        """T = nan and d_t = nan used to return nan, and T = inf gave 1."""
        args = {"R": 1000, "T": 4500, "d_t": 6.0}
        args[field] = bad
        with pytest.raises(ValueError, match="finite"):
            concept_pair_prob(args["R"], args["T"], args["d_t"], 10)
        h = SkillHierarchy.exponential_thresholds(5, 100)
        with pytest.raises(ValueError, match="finite"):
            level_recursion(h, args["R"], args["T"], args["d_t"])

    def test_rejects_nan_skill_count(self):
        with pytest.raises(ValueError):
            concept_pair_prob(1000, 4500, 6.0, math.nan)


class TestSkillLinkProb:
    def test_collapsed_prerequisites(self):
        assert skill_link_prob(200, 1e-3, 30.0, 2.0, 0.0) == 0.0

    def test_threshold_far_below_mean(self):
        """eta = 1 against mu = 100: the tail is certain, only the
        prerequisite factor remains."""
        p_rr = 100.0 / 19900.0
        val = skill_link_prob(200, p_rr, 1.0, 2.0, 0.9)
        np.testing.assert_allclose(val, 0.9**4, rtol=1e-9)

    def test_bound_below_exact_tail_but_same_scale(self):
        bound = skill_link_prob(200, 1e-3, 30.0, 0.0, 1.0)
        tail = float(binom.sf(29, 19900, 1e-3))
        assert bound <= tail
        assert bound >= 0.1 * tail

    def test_degenerate_threshold_warns(self):
        with pytest.warns(DegenerateBound) as caught:
            line = inspect.currentframe().f_lineno + 1
            assert skill_link_prob(5, 1e-3, 10.0, 0.0, 1.0) == 0.0
        # the warning points at the caller's line, not into the library
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]

    def test_validation(self):
        with pytest.raises(ValueError):
            skill_link_prob(200, 0.0, 30.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            skill_link_prob(200, 1e-3, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            skill_link_prob(200, 1e-3, 30.0, 0.0, 1.5)

    def test_nondecreasing_in_cooccurrence(self):
        # eta >= 3 keeps the quartile floor above the above-mean branch
        # at the crossing, so the whole curve is monotone
        for eta in (3.0, 5.0, 30.0, 200.0):
            vals = [
                skill_link_prob(200, float(p), eta, 0.0, 1.0)
                for p in np.geomspace(1e-8, 0.9, 60)
            ]
            assert np.all(np.diff(vals) >= -1e-15), eta

    def test_nonincreasing_in_threshold(self):
        for mu in (5.0, 50.0):
            p_rr = mu / 19900.0
            vals = [
                skill_link_prob(200, p_rr, float(e), 0.0, 1.0)
                for e in np.geomspace(0.5, 1000.0, 40)
            ]
            assert np.all(np.diff(vals) <= 1e-15), mu

    def test_sound_lower_bound_on_random_instances(self):
        """bound <= P(X >= eta) on 100 random instances, both branches."""
        rng = np.random.default_rng(77)
        for i in range(100):
            R = int(rng.integers(20, 441))
            n = R * (R - 1) // 2
            p_rr = float(10 ** rng.uniform(-4, math.log10(0.5)))
            mu = n * p_rr
            if i % 2 == 0:
                eta = int(rng.integers(1, max(2, math.ceil(mu)) + 1))
            else:
                hi = min(n - 1, int(3 * mu) + 20)
                eta = int(rng.integers(math.ceil(mu) + 1, max(math.ceil(mu) + 2, hi + 1)))
            eta = max(1, min(n - 1, eta))
            bound = skill_link_prob(R, p_rr, float(eta), 0.0, 1.0)
            tail = binomial_upper_tail(n, p_rr, eta)
            assert bound <= tail + 1e-12, (R, p_rr, eta, bound, tail)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_in_unit_interval(self, gamma_prev):
        val = skill_link_prob(100, 1e-3, 8.0, 1.5, gamma_prev)
        assert 0.0 <= val <= 1.0


class TestLambertW:
    def test_anchors(self):
        assert lambert_w0(0.0) == 0.0
        np.testing.assert_allclose(lambert_w0(math.e), 1.0, rtol=1e-12)
        np.testing.assert_allclose(
            lambert_w0(-2.0 * math.exp(-2.0)), -0.40637573995996, rtol=1e-11
        )
        assert lambert_w0(-math.exp(-1.0)) == -1.0

    def test_residual_over_domain(self):
        zs = -math.exp(-1.0) + np.geomspace(1e-9, 1e6 + math.exp(-1.0), 10**4)
        for z in zs:
            w = lambert_w0(float(z))
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.4)


class TestGccFraction:
    def test_subcritical_is_zero(self):
        for c in np.linspace(0.0, 1.0, 50):
            assert gcc_fraction(float(c)) == 0.0

    def test_matches_bisection(self):
        np.testing.assert_allclose(gcc_fraction(2.0), bisect_gcc(2.0), atol=1e-10)
        np.testing.assert_allclose(gcc_fraction(2.0), 0.796812, atol=1e-3)

    def test_dense_limit(self):
        assert abs(gcc_fraction(50.0) - (1.0 - math.exp(-50.0))) < 1e-15

    def test_fixed_point_residual(self):
        for c in np.geomspace(1.0 + 1e-6, 100.0, 1000):
            g = gcc_fraction(float(c))
            assert abs(1.0 - math.exp(-c * g) - g) < 1e-10

    def test_continuous_at_critical_point(self):
        assert gcc_fraction(1.0 + 1e-9) < 1e-6

    def test_strictly_increasing_past_critical(self):
        vals = [gcc_fraction(float(c)) for c in np.linspace(1.001, 30.0, 200)]
        assert np.all(np.diff(vals) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            gcc_fraction(-0.5)
        with pytest.raises(ValueError):  # passed every check and gave 1.0
            gcc_fraction(math.nan)

    def test_infinite_mean_degree_is_one(self):
        """Newton used to halve toward 1 from a NaN seed and stop at 1 - 2**-40."""
        assert gcc_fraction(math.inf) == 1.0
        assert gcc_fraction(1e308) == 1.0


class TestLevelRecursion:
    def test_collapse_propagates(self):
        """A dead first level kills every level that requires prerequisites."""
        h = SkillHierarchy.exponential_thresholds(5, 100)
        gammas = level_recursion(h, R=100, T=1, d_t=2.0)
        assert gammas[0] == 0.0
        assert np.all(gammas == 0.0)

    def test_large_budget_saturates_lower_levels(self):
        opt = optimize_budget(BudgetSpec(C=1e16, d_t=6.0))
        h = SkillHierarchy.exponential_thresholds(100, 1000)
        gammas = level_recursion(h, opt.R_star, opt.T_star, 6.0)
        assert np.all(gammas[:50] > 0.99)

    def test_monotone_in_texts(self):
        h = SkillHierarchy.exponential_thresholds(20, 100)
        prev = None
        for T in (1000, 2000, 4000, 8000):
            cur = level_recursion(h, 500, T, 6.0)
            if prev is not None:
                assert np.all(cur >= prev - 1e-9)
            prev = cur

    def test_detail_rows_consistent(self):
        h = SkillHierarchy.exponential_thresholds(5, 50)
        gammas, rows = level_recursion_detail(h, 2000, 40000, 6.0)
        assert len(rows) == 5
        for i, row in enumerate(rows):
            assert row.level == i + 1
            assert row.gamma == gammas[i]
            np.testing.assert_allclose(row.mean_degree, row.p_link * 50)

    @pytest.mark.parametrize(
        "spec",
        [
            # the first frontier_paper_scale budget: gamma falls to 0 at level 26
            BudgetSpec(C=1e21, varsigma=2e5, tau=8e5, d_t=6.0),
            # R* = 40: the upper thresholds exceed binom(R, 2)
            BudgetSpec(C=6e4, d_t=6.0),
        ],
        ids=["frontier", "degenerate_bound"],
    )
    def test_recursion_and_detail_agree_bitwise(self, spec):
        opt = optimize_budget(spec)
        h = SkillHierarchy.exponential_thresholds(100, 1000)

        def run(fn):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(h, opt.R_star, opt.T_star, spec.d_t)
            return out, [(w.category, str(w.message), w.lineno) for w in caught]

        gammas, warned = run(level_recursion)
        (detail, rows), detail_warned = run(level_recursion_detail)
        assert gammas.tobytes() == detail.tobytes()
        assert gammas.tobytes() == np.array([row.gamma for row in rows]).tobytes()
        assert warned == detail_warned
        if spec.C == 1e21:
            assert gammas[0] == 1.0 and gammas[-1] == 0.0
        else:
            assert warned and all(c is DegenerateBound for c, _, _ in warned)

    @pytest.mark.parametrize(
        "case",
        [
            # gamma falls to 0 at level 26 and stays there
            (SkillHierarchy.exponential_thresholds(100, 1000), 14545, 71616),
            # a sigma = 0 level above a dead one starts again from gamma = 1
            (
                SkillHierarchy(
                    S=(50,) * 6,
                    eta=(2.0, 3000.0, 2.0, 2.0, 3000.0, 2.0),
                    sigma=(0.0, 1.0, 1.0, 0.0, 1.5, 2.0),
                ),
                2000,
                40000,
            ),
            # eta >= binom(40, 2) = 780 at levels 4 and 6, above the dead level 2
            (
                SkillHierarchy(
                    S=(5,) * 6,
                    eta=(1.0, 700.0, 10.0, 900.0, 3.0, 780.0),
                    sigma=(0.0, 1.0, 1.0, 1.0, 1.0, 0.5),
                ),
                40,
                400,
            ),
            # gamma_1 = 0.068 is live, but gamma_1^(2 * 200) underflows to 0
            (
                SkillHierarchy(
                    S=(50,) * 4, eta=(248.0, 2.0, 2.0, 2.0), sigma=(0.0, 200.0, 1.0, 0.0)
                ),
                2000,
                40000,
            ),
        ],
        ids=["frontier", "revived_level", "degenerate_in_tail", "underflow"],
    )
    def test_zero_tail_matches_every_level_evaluated(self, case):
        """The link bound's early return at a zero prerequisite factor gives
        the rows and warnings of a loop over the public, checked
        skill_link_prob and gcc_fraction."""
        h, R, T = case

        def reference():
            gamma, rows = 1.0, []
            for i, (S, eta, sigma) in enumerate(zip(h.S, h.eta, h.sigma)):
                p_rr = concept_pair_prob(R, T, 6.0, S)
                p_link = skill_link_prob(R, p_rr, eta, sigma, gamma)
                gamma = gcc_fraction(p_link * S)
                rows.append(LevelRow(i + 1, p_rr, p_link, p_link * S, gamma))
            return rows

        def run(fn):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn()
            return out, [(w.category, str(w.message)) for w in caught]

        (gammas, rows), warned = run(lambda: level_recursion_detail(h, R, T, 6.0))
        want, want_warned = run(reference)

        def bits(rows):
            return np.array([[r.level, r.p_rr, r.p_link, r.mean_degree, r.gamma] for r in rows])

        assert bits(rows).tobytes() == bits(want).tobytes()
        assert gammas.tobytes() == np.array([r.gamma for r in want]).tobytes()
        assert warned == want_warned
        dead = [r.gamma == 0.0 for r in want]
        tail = [dead[i - 1] and h.sigma[i] > 0 for i in range(1, h.L)]
        assert any(tail)
        underflow = [
            0.0 < want[i - 1].gamma and want[i - 1].gamma ** (2.0 * h.sigma[i]) == 0.0
            for i in range(1, h.L)
        ]
        if R == 40:
            assert len(warned) == 2
        if h.L == 6 and R == 2000:
            assert dead == [False, True, True, False, True, True]
        if h.L == 4:
            assert dead == [False, True, True, False] and underflow == [True, False, False]
        else:
            assert not any(underflow)

    def test_level_recursion_without_texts_names_p_rr(self):
        """T = 0 makes every co-occurrence probability 0, outside (0, 1)."""
        h = SkillHierarchy.exponential_thresholds(5, 100)
        with pytest.raises(ValueError, match="p_rr"):
            level_recursion(h, 1000, 0, 6.0)

    def test_level_work_is_pinned(self, monkeypatch):
        """At the 5 benchmark frontier optima the recursions evaluate the
        Chernoff term 237 times, not once per level (500): the levels
        above the first dead one return at their zero prerequisite factor."""
        specs = [
            BudgetSpec(C=float(c), varsigma=2e5, tau=8e5, d_t=6.0, epsilon=0.5)
            for c in np.geomspace(1e21, 1e25, 5)
        ]
        opts = [optimize_budget(s) for s in specs]
        h = SkillHierarchy.exponential_thresholds(100, 1000, eta_scale=7.0)
        calls = []
        chernoff = emergence._kl_upper_exponent

        def counted(*args):
            calls.append(args)
            return chernoff(*args)

        monkeypatch.setattr(emergence, "_kl_upper_exponent", counted)
        for opt in opts:
            level_recursion(h, opt.R_star, opt.T_star, 6.0)
        assert len(calls) == 237

    def test_hierarchy_validation(self):
        with pytest.raises(ValueError):
            SkillHierarchy(S=(10, 10), eta=(1.0,), sigma=(0.0, 1.0))
        with pytest.raises(ValueError):
            SkillHierarchy(S=(10,), eta=(1.0,), sigma=(1.0,))  # sigma_1 != 0
        with pytest.raises(ValueError):
            SkillHierarchy(S=(1,), eta=(1.0,), sigma=(0.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_hierarchy_rejects_non_finite(self, bad):
        """A NaN eta or sigma used to give gamma = 0 at its level without a word."""
        with pytest.raises(ValueError, match="finite"):
            SkillHierarchy(S=(10, 10), eta=(1.0, bad), sigma=(0.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            SkillHierarchy(S=(10, 10), eta=(1.0, 2.0), sigma=(0.0, bad))


class TestTaskAccuracy:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_task_rejects_non_finite_weights(self, bad):
        """abs(nan - 1) > 1e-12 is False, so the sum check let NaN through."""
        with pytest.raises(ValueError, match="finite"):
            TaskSpec(weights={(1, 1): 1.0, (2, 1): bad})
        with pytest.raises(ValueError, match="finite"):
            TaskSpec(weights={(1, 1): bad})

    def test_fully_usable_skills(self):
        task = TaskSpec.product({1: 0.5, 2: 0.5}, {2: 0.5, 3: 0.5})
        assert task_accuracy(np.ones(2), task) == 1.0

    def test_single_subtask_power(self):
        task = TaskSpec.homogeneous(level=1, m=3)
        np.testing.assert_allclose(task_accuracy(np.array([0.9]), task), 0.729)

    def test_uniform_arity_mixture(self):
        task = TaskSpec.product({1: 1.0}, {m: 1.0 / 6.0 for m in range(2, 8)})
        np.testing.assert_allclose(
            task_accuracy(np.array([0.5]), task), 0.08203125, rtol=1e-12
        )

    def test_level_out_of_range(self):
        task = TaskSpec.homogeneous(level=3, m=1)
        with pytest.raises(ValueError):
            task_accuracy(np.ones(2), task)

    def test_matches_numpy_scalar_sum_bitwise(self):
        """The shipped step, scurve and plateaus mixtures, summed over numpy
        scalars gamma_l**m, give the same bits as task_accuracy."""
        arity = {m: 1.0 / 6.0 for m in range(2, 8)}
        tasks = [
            TaskSpec.homogeneous(level=50, m=5),
            task_mixture_binomial(100, 0.5).with_arity(arity),
            task_mixture_binomial(100, (0.2, 0.6, 0.95), (0.4, 0.4, 0.2)).with_arity(arity),
        ]
        rng = np.random.default_rng(5)
        for g in [rng.uniform(0.0, 1.0, 100), 1.0 - rng.uniform(0.0, 1e-3, 100)]:
            for task in tasks:
                want = math.fsum(q * g[l - 1] ** m for (l, m), q in task.weights.items())
                assert task_accuracy(g, task) == min(1.0, max(0.0, want))

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_monotone_in_gamma(self, g1, g2):
        task = TaskSpec.product({1: 1.0}, {m: 1.0 / 6.0 for m in range(2, 8)})
        lo, hi = sorted((g1, g2))
        assert task_accuracy(np.array([lo]), task) <= task_accuracy(np.array([hi]), task)


class TestTaskMixtureBinomial:
    def test_two_level_split(self):
        task = task_mixture_binomial(2, 0.5)
        marg = task.level_marginal()
        np.testing.assert_allclose(marg[1], 2.0 / 3.0, rtol=1e-12)
        np.testing.assert_allclose(marg[2], 1.0 / 3.0, rtol=1e-12)

    def test_trimodal_modes(self):
        task = task_mixture_binomial(100, (0.2, 0.6, 0.95), (0.4, 0.4, 0.2))
        marg = task.level_marginal()
        m = np.array([marg.get(l, 0.0) for l in range(1, 101)])
        assert int(np.argmax(m[:40])) + 1 == 20
        assert int(np.argmax(m[40:80])) + 41 == 60
        assert int(np.argmax(m[80:])) + 81 == 95
        np.testing.assert_allclose(math.fsum(marg.values()), 1.0, atol=1e-12)

    def test_with_arity_outer_product(self):
        task = task_mixture_binomial(2, 0.5).with_arity({2: 0.25, 3: 0.75})
        w = task.weights
        np.testing.assert_allclose(w[(1, 2)], (2.0 / 3.0) * 0.25)
        np.testing.assert_allclose(w[(2, 3)], (1.0 / 3.0) * 0.75)
        np.testing.assert_allclose(math.fsum(w.values()), 1.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            task_mixture_binomial(10, (0.2, 0.6), (0.5, 0.4))  # weights != 1
        with pytest.raises(ValueError):
            task_mixture_binomial(10, (0.2, 0.6))  # missing weights
        with pytest.raises(ValueError):
            task_mixture_binomial(10, 1.5)
        with pytest.raises(ValueError, match="finite"):
            task_mixture_binomial(10, (0.2, 0.6), (math.nan, 1.0))


class TestAccuracyVsCompute:
    def test_allocation_reuse(self):
        specs = [BudgetSpec(C=c, d_t=6.0) for c in np.geomspace(6e6, 6e8, 3)]
        h = SkillHierarchy.exponential_thresholds(5, 50)
        task = TaskSpec.homogeneous(level=1, m=2)
        opts = [optimize_budget(s) for s in specs]
        fresh = accuracy_vs_compute(specs, h, task)
        shared = accuracy_vs_compute(specs, h, task, allocations=opts)
        np.testing.assert_array_equal(fresh.accuracy, shared.accuracy)
        np.testing.assert_array_equal(fresh.gamma, shared.gamma)
        with pytest.raises(ValueError):
            accuracy_vs_compute(specs, h, task, allocations=opts[:-1])

    def test_undersampled_mapping_warns_once(self):
        specs = [BudgetSpec(C=c, d_t=6.0) for c in np.geomspace(6e2, 6e3, 2)]
        h = SkillHierarchy.exponential_thresholds(3, 10**4)
        task = TaskSpec.homogeneous(level=1, m=1)
        opts = [optimize_budget(s) for s in specs]
        assert all(o.R_star < 10**4 for o in opts)
        with pytest.warns(UserWarning) as record:
            accuracy_vs_compute(specs, h, task, allocations=opts)
        # tiny R against huge S also trips the impossible-tail warning
        notes = [w for w in record if w.category is UserWarning]
        assert [str(w.message) for w in notes] == [
            f"R* = {opts[0].R_star} below max level size S = 10000: "
            "uniform concept-to-skill mapping is undersampled"
        ]
        assert notes[0].filename == __file__


def synthetic_curve(log_c, accuracy):
    n = len(log_c)
    return EmergenceCurve(
        C=10.0 ** np.asarray(log_c, dtype=np.float64),
        N_star=np.ones(n),
        R_star=np.ones(n, dtype=np.int64),
        T_star=np.ones(n, dtype=np.int64),
        accuracy=np.asarray(accuracy, dtype=np.float64),
        gamma=np.zeros((n, 1)),
    )


class TestDetectPlateaus:
    def test_constant_curve_is_one_plateau(self):
        curve = synthetic_curve(np.linspace(0, 4, 12), np.full(12, 0.3))
        segs = detect_plateaus(curve, slope_tol=0.02, min_width_decades=0.3)
        assert [s.kind for s in segs] == ["plateau"]
        np.testing.assert_allclose(segs[0].width_decades, 4.0)

    def test_single_step(self):
        log_c = np.linspace(0, 4, 17)
        acc = np.where(log_c < 1.9, 0.01, 0.95)
        acc = np.where((log_c >= 1.9) & (log_c < 2.1), 0.5, acc)
        curve = synthetic_curve(log_c, acc)
        segs = detect_plateaus(curve, slope_tol=0.02, min_width_decades=0.3)
        assert [s.kind for s in segs] == ["plateau", "rise", "plateau"]

    def test_narrow_flat_run_counts_as_rise(self):
        # a single flat interval of 0.25 decades inside a climb
        log_c = np.array([0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0])
        acc = np.array([0.0, 0.1, 0.2, 0.2, 0.3, 0.4, 0.5, 0.6])
        curve = synthetic_curve(log_c, acc)
        segs = detect_plateaus(curve, slope_tol=0.02, min_width_decades=0.3)
        assert [s.kind for s in segs] == ["rise"]

    def test_too_few_points(self):
        curve = synthetic_curve(np.linspace(0, 2, 7), np.linspace(0, 1, 7))
        with pytest.raises(TooFewPoints):
            detect_plateaus(curve, slope_tol=0.02, min_width_decades=0.3)

    @pytest.mark.parametrize(
        "log_c",
        [np.linspace(4, 0, 12), np.repeat(np.linspace(0, 4, 6), 2)],
        ids=["descending", "repeated"],
    )
    def test_budgets_must_increase(self, log_c):
        curve = synthetic_curve(log_c, np.linspace(0, 1, log_c.size))
        with pytest.raises(ValueError, match="strictly increasing"):
            detect_plateaus(curve, slope_tol=0.02, min_width_decades=0.3)
