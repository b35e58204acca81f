"""Tests for density evolution, the threshold solver, and the waterfall law."""

import logging
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from scaling_lens.degree import DegreeModel, PolynomialPair
from scaling_lens.optimizer import BudgetSpec, _geometric_ints, _r_bounds, isoflop_curve
from scaling_lens.peeling import mc_parent_graph_erasure
from scaling_lens import threshold
from scaling_lens.threshold import (
    DegenerateThreshold,
    ThresholdSolution,
    bit_erasure_rate,
    de_map,
    find_threshold,
    matching_upper_bound,
    prob_concept_unlearned,
    qfunc,
    scaling_alpha,
    _trivial_branch,
)

# classical (3,6)-regular pair: lam(x) = x^2, rho(x) = x^5
PAIR_36 = PolynomialPair(lam_coeffs=(0.0, 0.0, 1.0), rho_coeffs=(0.0, 0.0, 0.0, 0.0, 0.0, 1.0))


def dense_grid_threshold(pair, dx=1e-6):
    """Independent threshold oracle: min over x of x / lam(1 - rho(1 - x)).

    A fixed point of eps*lam(1 - rho(1 - x)) first appears at the eps
    where the ratio curve touches its minimum, so a dense scan of the
    ratio needs no bisection and shares no code with the solver.
    """
    x = np.arange(dx, 1.0 + dx / 2, dx)
    denom = pair.lam(1.0 - pair.rho(1.0 - x))
    ratio = np.where(denom > 0, x / np.where(denom > 0, denom, 1.0), np.inf)
    return float(ratio.min())


def dense_geometric_threshold(model, points=1 << 22, chunk=1 << 17):
    """Min of x / g(x) over `points` geometric x in [1e-9, 1], capped at 1.

    The direct characterization evaluated on a grid ~2000x denser than
    the solver's, chunked to keep memory small.
    """
    log_x = np.linspace(math.log(1e-9), 0.0, points)
    best = math.inf
    for start in range(0, points, chunk):
        x = np.exp(log_x[start : start + chunk])
        g = model.lam(1.0 - model.rho(1.0 - x))
        with np.errstate(divide="ignore", over="ignore"):
            best = min(best, float(np.min(x / g)))
    return min(1.0, best)


def first_eps_with_fixed_point(model, eps_from, step, points=1 << 20):
    """Dense eps scan of the solver's predicate, independent of its min search.

    The predicate is "f(x, eps) >= x for some x > cut(eps)", with the junk
    cut max(1e-9, min(2*x_triv, 4*eps*lam(0) + 1e-9)) spelled out here.  x
    runs over a dense geometric grid plus a ladder of points just above the
    cut: where x/g(x) rises with slope near 1 past the cut, a grid step of
    dx shifts the scan's answer by ~dx/(1 - slope), which the ladder
    removes.  Returns the first scanned eps where the predicate holds; the
    scan must start where it does not.
    """
    grid = np.geomspace(1e-9, 1.0, points)
    lam0 = float(model.lam(0.0))

    def holds(eps):
        cut = max(1e-9, min(2.0 * _trivial_branch(model, eps), 4.0 * eps * lam0 + 1e-9))
        x = np.concatenate((cut * (1.0 + np.geomspace(1e-12, 1e-3, 400)), grid[grid > cut]))
        x = x[x <= 1.0]
        return bool(np.any(eps * model.lam(1.0 - model.rho(1.0 - x)) >= x))

    assert not holds(eps_from)
    eps = eps_from
    while not holds(eps):
        eps += step
    return eps


class TestQFunction:
    def test_center_value(self):
        assert qfunc(0.0) == 0.5

    def test_symmetry_on_grid(self):
        for z in np.linspace(-8.0, 8.0, 33):
            assert abs(qfunc(-z) - (1.0 - qfunc(z))) < 1e-12

    @given(z=st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_property(self, z):
        assert abs(qfunc(-z) - (1.0 - qfunc(z))) < 1e-12

    def test_monotone_decreasing(self):
        # past |z| = 8 the complement saturates to 1.0 in double precision,
        # so strict decrease is only testable inside that window
        zs = np.linspace(-8.0, 8.0, 101)
        vals = [qfunc(z) for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDeMap:
    def test_at_x_zero(self):
        """f(0, eps) collapses to eps * lam(0)."""
        m = DegreeModel(R=40, T=60, d_t=5.0, epsilon=0.5)
        for eps in (0.1, 0.5, 1.0):
            expected = eps * m.gen("lam", 0.0)
            np.testing.assert_allclose(de_map(m, 0.0, eps), expected, rtol=1e-14)

    def test_at_x_one_full_erasure(self):
        m = DegreeModel(R=40, T=60, d_t=5.0, epsilon=0.5)
        expected = m.gen("lam", 1.0 - m.gen("rho", 0.0))
        np.testing.assert_allclose(de_map(m, 1.0, 1.0), expected, rtol=1e-14)

    def test_matches_high_precision_reference(self):
        """50-digit evaluation of the update at a small model, 1e-10 agreement."""
        m = DegreeModel(R=20, T=40, d_t=3.0, epsilon=0.5)
        x, eps = 0.3, 0.4
        with mpmath.workdps(50):
            p = mpmath.mpf(3) / 20
            rho_exp = mpmath.mpf(20) / mpmath.mpf("0.5") - 1  # 39
            lam_exp = mpmath.mpf(40 - 1)
            inner = (p * (1 - x) + 1 - p) ** rho_exp
            ref = mpmath.mpf("0.4") * (p * (1 - inner) + 1 - p) ** lam_exp
            ref = float(ref)
        assert abs(de_map(m, x, eps) - ref) < 1e-10

    def test_nondecreasing_in_x_and_eps(self):
        """Monotone update on a 20x20 grid for a spread of models."""
        xs = np.linspace(0.0, 1.0, 20)
        eps = np.linspace(0.0, 1.0, 20)
        models = [
            DegreeModel(R=30, T=50, d_t=4.0, epsilon=0.5),
            DegreeModel(R=500, T=2000, d_t=6.0, epsilon=0.3),
            PAIR_36,
        ]
        for m in models:
            grid = np.array([de_map(m, xs, e) for e in eps])
            assert np.all(np.diff(grid, axis=0) >= -1e-14)  # in eps
            assert np.all(np.diff(grid, axis=1) >= -1e-14)  # in x


class TestFindThreshold:
    def test_regular_pair_matches_dense_grid_oracle(self):
        """(3,6)-regular threshold lands at the classical 0.4294 value."""
        sol = find_threshold(PAIR_36)
        oracle = dense_grid_threshold(PAIR_36)
        assert abs(sol.eps_star - 0.4294) < 1e-3
        assert abs(sol.eps_star - oracle) < 1e-6
        assert not sol.no_transition
        assert 0.0 < sol.x_star < 1.0

    def test_subcritical_model_reports_no_transition(self):
        # d_t = 0.9 and d_r = 0.72 are both below 1: no decoding transition,
        # yet the starved text side leaves a third of the bits erased; the
        # rate is the DE one, which Monte Carlo confirms (0.3381 +- 0.0005,
        # test_density_evolution_branch_matches_monte_carlo)
        m = DegreeModel(R=1000, T=800, d_t=0.9)
        sol = find_threshold(m)
        assert sol.no_transition
        assert sol.eps_star == 1.0
        assert bit_erasure_rate(m, sol) == pytest.approx(0.33785, abs=1e-5)

    def test_degenerate_bracket_raises(self):
        with pytest.raises(DegenerateThreshold):
            find_threshold(PAIR_36, eps_lo=0.6, eps_hi=0.9)

    def test_invalid_bracket_rejected(self):
        with pytest.raises(ValueError):
            find_threshold(PAIR_36, eps_lo=0.5, eps_hi=0.5)
        with pytest.raises(ValueError):
            find_threshold(PAIR_36, eps_lo=-0.1, eps_hi=0.5)

    def test_threshold_nondecreasing_in_texts(self):
        """More texts never hurt: eps_star is monotone in T at fixed R, d_t."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            R = int(rng.integers(50, 2000))
            d_t = float(rng.uniform(1.5, 8.0))
            T1 = int(rng.integers(R, 4 * R))
            T2 = int(T1 * rng.uniform(1.1, 3.0))
            s1 = find_threshold(DegreeModel(R=R, T=T1, d_t=d_t))
            s2 = find_threshold(DegreeModel(R=R, T=T2, d_t=d_t))
            assert s2.eps_star >= s1.eps_star - 1e-6

    def test_random_models_match_dense_minimum(self):
        """Clean models (lam(0) <= 1e-9): eps_star is the dense min of x/g(x) to 1e-8."""
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 24:
            R = int(np.exp(rng.uniform(np.log(50), np.log(2e6))))
            d_t = float(rng.uniform(1.5, 9.0))
            T = int(R * rng.uniform(21.0, 60.0) / d_t)
            model = DegreeModel(R=R, T=T, d_t=d_t, epsilon=float(rng.uniform(0.2, 0.9)))
            if model.lam(0.0) > 1e-9:
                continue
            oracle = dense_geometric_threshold(model)
            sol = find_threshold(model)
            assert abs(sol.eps_star - oracle) <= 1e-8, (model, sol.eps_star, oracle)
            assert not sol.on_junk_cut
            checked += 1

    def test_isoflop_rows_match_dense_minimum(self):
        """isoflop_curve meets the solver's 1e-8 tolerance on its clean rows.

        Twelve rows with lam(0) <= 1e-9, spread over the C = 6e5 curve of
        configs/isoflop_desk.txt.
        """
        curve = isoflop_curve(BudgetSpec(C=6e5, d_t=6.0))
        models = [
            DegreeModel(R=int(r), T=int(t), d_t=6.0)
            for r, t in zip(curve.R.tolist(), curve.T.tolist())
        ]
        clean = [i for i, m in enumerate(models) if m.lam(0.0) <= 1e-9]
        for i in np.linspace(0, len(clean) - 1, 12).round().astype(int):
            k = clean[i]
            oracle = dense_geometric_threshold(models[k])
            err = abs(curve.eps_star[k] - oracle)
            assert err <= 1e-8, (models[k], curve.eps_star[k], oracle)

    @pytest.mark.parametrize(
        "R, T",
        [(65195, 15977), (206166, 50525), (5242, 1907), (605, 165), (206, 48)],
    )
    def test_junk_dominated_models_match_predicate_scan(self, R, T, monkeypatch):
        """Large lam(0) puts the minimum on the junk cut itself.

        eps_star lies within one 1e-4 step of the first eps where a dense
        scan finds a fixed point above the cut, and the solve takes few
        evaluations of the cut (one per pass).
        """
        model = DegreeModel(R=R, T=T, d_t=6.0)
        assert model.lam(0.0) > 0.05
        passes = []

        def counted(*args, **kwargs):
            passes.append(args[1])
            return _trivial_branch(*args, **kwargs)

        monkeypatch.setattr(threshold, "_trivial_branch", counted)
        sol = find_threshold(model)
        assert 1 <= len(passes) <= 20
        monkeypatch.undo()
        step = 1e-4
        first = first_eps_with_fixed_point(model, sol.eps_star - 50 * step, step)
        assert sol.on_junk_cut
        assert abs(sol.eps_star - first) <= step


class TestJunkOrbitEarlyStop:
    def test_solutions_match_full_orbit(self, monkeypatch):
        """Stopping the orbit from 0 at half the junk cap changes no solution.

        The reference runs the same solver with _trivial_branch ignoring
        stop_above, so every cut comes from the converged orbit.
        """
        rng = np.random.default_rng(31)
        models = [DegreeModel(R=206, T=48, d_t=6.0), DegreeModel(R=65195, T=15977, d_t=6.0)]
        for _ in range(300):
            R = int(np.exp(rng.uniform(np.log(20), np.log(2e6))))
            d_t = float(rng.uniform(1.0, 9.0))
            T = max(1, int(R * rng.uniform(0.5, 40.0) / d_t))
            models.append(DegreeModel(R=R, T=T, d_t=d_t, epsilon=float(rng.uniform(0.2, 0.9))))

        def solve_all():
            out = []
            for model in models:
                try:
                    out.append(find_threshold(model))
                except DegenerateThreshold as exc:
                    out.append(repr(exc))
            return out

        stopped = solve_all()
        early = []

        def full_orbit(model, eps, max_iter=2000, stop_above=math.inf):
            x = _trivial_branch(model, eps, max_iter)
            early.append(stop_above <= x)
            return x

        monkeypatch.setattr(threshold, "_trivial_branch", full_orbit)
        reference = solve_all()
        assert stopped == reference
        on_cut = sum(isinstance(s, ThresholdSolution) and s.on_junk_cut for s in stopped)
        assert on_cut >= 10
        assert any(early)

    def test_stops_at_the_cap_scale(self):
        model = DegreeModel(R=206, T=48, d_t=6.0)
        eps = 0.51
        half_cap = 2.0 * eps * float(model.lam(0.0))
        limit = _trivial_branch(model, eps)
        x = _trivial_branch(model, eps, stop_above=half_cap)
        assert half_cap <= x < limit


class _Unshared(float):
    """A cut equal in value to another yet never the same dict key."""

    __hash__ = object.__hash__


def spy_cuts(monkeypatch, unshared=False):
    """Record the cut of every m(eps) and the cut of every _min_above call;
    with unshared set, every m(eps) gets a distinct key, defeating the memo."""
    cuts, calls = [], []
    junk_cut, min_above = threshold._junk_cut, threshold._min_above

    def cut_spy(model, eps):
        cut = junk_cut(model, eps)
        cuts.append(cut)
        return _Unshared(cut) if unshared else cut

    def min_spy(model, cut, ratio):
        calls.append(float(cut))
        return min_above(model, cut, ratio)

    monkeypatch.setattr(threshold, "_junk_cut", cut_spy)
    monkeypatch.setattr(threshold, "_min_above", min_spy)
    return cuts, calls


class TestMinAboveMemo:
    """find_threshold computes the minimum of x/g(x) once per distinct cut."""

    JUNK = [(206, 48), (605, 165), (5242, 1907), (65195, 15977)]

    def test_clean_model_minimizes_once(self, monkeypatch):
        cuts, calls = spy_cuts(monkeypatch)
        sol = find_threshold(DegreeModel(R=1000, T=4500, d_t=6.0))
        assert not sol.on_junk_cut
        assert len(cuts) >= 2 and set(cuts) == {threshold.X_GRID_LO}
        assert calls == [threshold.X_GRID_LO]

    @pytest.mark.parametrize("R, T", JUNK)
    def test_junk_model_minimizes_once_per_cut(self, R, T, monkeypatch):
        cuts, calls = spy_cuts(monkeypatch)
        sol = find_threshold(DegreeModel(R=R, T=T, d_t=6.0))
        assert sol.on_junk_cut
        assert len(cuts) >= 2
        assert calls == list(dict.fromkeys(cuts))

    def test_memo_changes_no_solution(self, monkeypatch):
        rng = np.random.default_rng(13)
        models = [DegreeModel(R=1000, T=4500, d_t=6.0)]
        models += [DegreeModel(R=R, T=T, d_t=6.0) for R, T in self.JUNK]
        for _ in range(40):
            R = int(np.exp(rng.uniform(np.log(20), np.log(2e6))))
            d_t = float(rng.uniform(1.0, 9.0))
            T = max(1, int(R * rng.uniform(0.5, 40.0) / d_t))
            models.append(DegreeModel(R=R, T=T, d_t=d_t, epsilon=float(rng.uniform(0.2, 0.9))))

        def solve_all():
            out = []
            for model in models:
                try:
                    out.append(find_threshold(model))
                except DegenerateThreshold as exc:
                    out.append(repr(exc))
            return out

        cuts, calls = spy_cuts(monkeypatch)
        shared = solve_all()
        assert len(calls) < len(cuts)
        monkeypatch.undo()
        cuts, calls = spy_cuts(monkeypatch, unshared=True)
        assert solve_all() == shared
        assert len(calls) == len(cuts)


# the C = 1e21 optimum of configs/frontier_paper_scale.txt
FRONTIER_R, FRONTIER_T = 14545, 71616
GRID_MODELS = {
    "exact_log": DegreeModel(R=FRONTIER_R, T=FRONTIER_T, d_t=6.0),
    "poisson_limit": DegreeModel(R=FRONTIER_R, T=FRONTIER_T, d_t=6.0, eval_mode="poisson_limit"),
    "pair_36": PAIR_36,
}


class TestOnGridCut:
    """_min_above reuses the grid's x/g(x) when the cut is a grid point.

    That rests on x/g(x) being elementwise: one grid point alone gives the
    same bits as the same point inside the whole grid.
    """

    @pytest.mark.parametrize("name", GRID_MODELS)
    def test_one_point_ratio_is_the_grid_ratio(self, name):
        model = GRID_MODELS[name]
        ratio = threshold._ratio(model, threshold.X_GRID)
        for k in (0, 1, 1023, 2047):
            one = threshold._ratio(model, threshold.X_GRID[k : k + 1])
            assert one.tobytes() == ratio[k : k + 1].tobytes(), k

    @pytest.mark.parametrize("name", GRID_MODELS)
    def test_grid_cut_matches_the_prepended_cut(self, name, monkeypatch):
        model = GRID_MODELS[name]
        ratio = threshold._ratio(model, threshold.X_GRID)
        assert threshold.X_GRID[0] == threshold.X_GRID_LO
        got = threshold._min_above(model, threshold.X_GRID_LO, ratio)
        # without its first point the grid does not hold the cut, so
        # _min_above prepends the cut with its own 1-point ratio
        monkeypatch.setattr(threshold, "X_GRID", threshold.X_GRID[1:])
        assert got == threshold._min_above(model, threshold.X_GRID_LO, ratio[1:])


class TestErrorState:
    """find_threshold silences divide and overflow warnings only while it
    solves: numpy's error state is the caller's again afterwards."""

    CASES = {
        "clean": (DegreeModel(R=1000, T=4500, d_t=6.0), {}, None),
        "junk_cut": (DegreeModel(R=206, T=48, d_t=6.0), {}, None),
        "no_transition": (DegreeModel(R=1000, T=800, d_t=0.9), {}, None),
        # lam(0) underflows to 0, so x/g(x) divides by zero at low x
        "data_rich": (DegreeModel(R=100, T=20000, d_t=6.0), {}, None),
        "degenerate": (PAIR_36, {"eps_lo": 0.6, "eps_hi": 0.9}, DegenerateThreshold),
        "bad_bracket": (PAIR_36, {"eps_lo": 0.5, "eps_hi": 0.5}, ValueError),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_error_state_is_restored_without_warnings(self, name):
        model, kwargs, raises = self.CASES[name]
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if raises is None:
                find_threshold(model, **kwargs)
            else:
                with pytest.raises(raises):
                    find_threshold(model, **kwargs)
        assert np.geterr() == before

    def test_data_rich_grid_divides_by_zero(self):
        model = self.CASES["data_rich"][0]
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            threshold._ratio(model, threshold.X_GRID)


class TestIterationCapLogging:
    def test_cap_hit_logs_once_with_eps_and_x(self, caplog):
        model = DegreeModel(R=206, T=48, d_t=6.0)
        with caplog.at_level(logging.DEBUG, logger="scaling_lens.threshold"):
            x = _trivial_branch(model, 0.5, max_iter=3)
        records = [r for r in caplog.records if "cap" in r.getMessage()]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert "eps=0.5" in records[0].getMessage()
        assert f"x={x:.12g}" in records[0].getMessage()

    def test_converged_orbit_is_silent(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="scaling_lens.threshold"):
            threshold.de_fixed_point(DegreeModel(R=1000, T=4500, d_t=6.0), 0.5)
        assert not [r for r in caplog.records if "cap" in r.getMessage()]


class TestMatchingUpperBound:
    def test_degree_one_both_sides(self):
        # T = 1 and R/eps = 1 make both integrands constant 1
        m = DegreeModel(R=1, T=1, d_t=0.5, epsilon=1.0)
        assert matching_upper_bound(m) == pytest.approx(1.0, abs=1e-14)

    def test_matches_adaptive_quadrature(self):
        """Closed-form integrals of the model's own rho and lam agree with
        scipy quadrature to 1e-9, in either evaluation mode.  The last
        model is small enough that the two modes differ in the third digit
        (binomial 0.600010)."""
        for m in (
            DegreeModel(R=100, T=200, d_t=4.0, epsilon=0.5),
            DegreeModel(R=100, T=200, d_t=4.0, epsilon=0.5, eval_mode="poisson_limit"),
            DegreeModel(R=10, T=12, d_t=6.0, epsilon=0.5, eval_mode="poisson_limit"),
        ):
            num, _ = integrate.quad(lambda x: m.gen("rho", x), 0.0, 1.0, epsabs=1e-13)
            den, _ = integrate.quad(lambda x: m.gen("lam", x), 0.0, 1.0, epsabs=1e-13)
            np.testing.assert_allclose(matching_upper_bound(m), num / den, rtol=1e-9)

    def test_polynomial_pair_closed_form(self):
        # int x^5 = 1/6, int x^2 = 1/3
        assert matching_upper_bound(PAIR_36) == pytest.approx(0.5, abs=1e-14)

    def test_bounds_every_solved_threshold(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            R = int(rng.integers(20, 3000))
            d_t = float(rng.uniform(1.2, 9.0))
            T = int(rng.integers(R // 2, 5 * R))
            eps = float(rng.uniform(0.2, 0.9))
            m = DegreeModel(R=R, T=max(T, 2), d_t=d_t, epsilon=eps)
            sol = find_threshold(m)
            assert sol.eps_star <= matching_upper_bound(m) + 1e-6


def alpha_reference(pair, x_star, eps_star, dps=50):
    """Mirror of the scaling-slope expression in 50-digit arithmetic.

    Polynomial generating functions and their derivatives are evaluated
    term by term with mpmath, so the only shared ingredient with the
    implementation is the displayed formula itself.
    """
    with mpmath.workdps(dps):
        def poly(coeffs, x, order=0):
            acc = mpmath.mpf(0)
            for i, c in enumerate(coeffs):
                if c == 0.0:
                    continue
                k = 1
                for j in range(order):
                    k *= i - j
                if k:
                    acc += mpmath.mpf(c) * k * mpmath.mpf(x) ** max(i - order, 0)
            return acc

        lam = pair.lam_coeffs
        rho = pair.rho_coeffs
        xs = mpmath.mpf(repr(x_star))
        es = mpmath.mpf(repr(eps_star))
        xb = 1 - xs
        y = 1 - poly(rho, xb)
        lp1 = 1 / sum(mpmath.mpf(c) / (i + 1) for i, c in enumerate(lam))
        num_text = (
            poly(rho, xb) ** 2
            - poly(rho, xb * xb)
            + poly(rho, xb, 1) * (1 - 2 * xs * poly(rho, xb))
            - xb**2 * poly(rho, xb * xb, 1)
        )
        den_text = lp1 * poly(lam, y) ** 2 * poly(rho, xb, 1) ** 2
        num_conc = es**2 * (poly(lam, y) ** 2 - poly(lam, y * y) - y * y * poly(lam, y * y, 1))
        den_conc = lp1 * poly(lam, y) ** 2
        return float(mpmath.sqrt(num_text / den_text + num_conc / den_conc))


class TestScalingAlpha:
    def test_generating_function_derivatives_match_finite_differences(self):
        """The derivative sub-terms feeding alpha agree with central differences."""
        m = DegreeModel(R=100, T=200, d_t=4.0, epsilon=0.5)
        h = 1e-6
        for which in ("lam", "rho"):
            for x in (0.2, 0.45, 0.7, 0.9):
                fd1 = (m.gen(which, x + h) - m.gen(which, x - h)) / (2 * h)
                np.testing.assert_allclose(m.gen(which, x, order=1), fd1, rtol=1e-4)
                fd2 = (
                    m.gen(which, x + h)
                    - 2 * m.gen(which, x)
                    + m.gen(which, x - h)
                ) / h**2
                np.testing.assert_allclose(m.gen(which, x, order=2), fd2, rtol=1e-4)

    def test_regular_pair_matches_high_precision_reference(self):
        sol = find_threshold(PAIR_36)
        ref = alpha_reference(PAIR_36, sol.x_star, sol.eps_star)
        np.testing.assert_allclose(sol.alpha, ref, rtol=1e-8)

    def test_mode_invariance_at_scale(self):
        """exact_log and poisson_limit alphas agree once R, T are >= 1e6."""
        me = DegreeModel(R=2 * 10**6, T=4 * 10**6, d_t=6.0, epsilon=0.5)
        sol = find_threshold(me)
        mp_ = DegreeModel(R=2 * 10**6, T=4 * 10**6, d_t=6.0, epsilon=0.5, eval_mode="poisson_limit")
        a_exact = scaling_alpha(me, sol.x_star, sol.eps_star)
        a_poisson = scaling_alpha(mp_, sol.x_star, sol.eps_star)
        np.testing.assert_allclose(a_exact, a_poisson, rtol=1e-4)

    def test_regular_pair_matches_literature_value(self):
        """The (3,6) slope alpha = 0.56036 of Amraoui, Montanari, Richardson
        and Urbanke, "Finite-length scaling for iteratively decoded LDPC
        ensembles", IEEE Trans. Inf. Theory 55(2), 2009."""
        assert find_threshold(PAIR_36).alpha == pytest.approx(0.56036, abs=1e-5)

    def test_degenerate_point_raises(self):
        from scaling_lens.threshold import NonPositiveRadicand

        pair = PolynomialPair(lam_coeffs=(0.0, 0.0, 1.0), rho_coeffs=(0.0, 1.0))
        with pytest.raises(NonPositiveRadicand):
            scaling_alpha(pair, 0.9, 1.0)


@pytest.fixture(scope="module")
def near_threshold_mc():
    """One shared 1000-trial parent-graph run near the operating point."""
    model = DegreeModel(R=1000, T=4500, d_t=6.0, epsilon=0.5)
    sol = find_threshold(model)
    mc = mc_parent_graph_erasure(model, trials=1000, seed=11)
    return model, sol, mc


class TestBitErasureRate:
    def test_at_threshold_gives_half_prefactor(self):
        """Operating exactly at eps_star leaves Q(0) = 1/2 of the stall mass."""
        m = DegreeModel(R=400, T=900, d_t=5.0, epsilon=0.5)
        sol = ThresholdSolution(eps_star=0.5, x_star=0.3, nu_star=0.8, alpha=0.6)
        assert bit_erasure_rate(m, sol) == pytest.approx(0.4, rel=1e-12)

    def test_deep_success_underflows_to_zero(self):
        # L(0) = (1 - p)**T underflows, so the DE floor is 0 and the law rules
        m = DegreeModel(R=10**6, T=2 * 10**8, d_t=6.0, epsilon=0.1)
        sol = ThresholdSolution(eps_star=0.9, x_star=0.3, nu_star=0.5, alpha=0.5)
        assert bit_erasure_rate(m, sol) < 1e-300

    def test_near_threshold_matches_monte_carlo_within_factor_two(self, near_threshold_mc):
        """The rate tracks simulation to a factor of 2 at R/eps = 2000.

        Finite-size corrections shift the transition center by O(n^(-2/3)),
        so close to threshold the rate is only accurate to a constant factor
        (0.421 against 0.338 here).
        """
        model, sol, mc = near_threshold_mc
        rate = bit_erasure_rate(model, sol)
        assert mc.mean > 0
        assert 0.5 <= rate / mc.mean <= 2.0

    def test_off_threshold_matches_monte_carlo(self):
        """Well above threshold the law lands within 3 MC standard errors.

        A zero-failure run has zero sample stderr, so the tolerance is
        floored at 1/trials (rule-of-three scale for unseen events).
        """
        model = DegreeModel(R=1000, T=6500, d_t=6.0, epsilon=0.5)
        sol = find_threshold(model)
        law = bit_erasure_rate(model, sol)
        mc = mc_parent_graph_erasure(model, trials=1000, seed=11)
        assert abs(law - mc.mean) <= 3.0 * max(mc.stderr, 1.0 / 1000)

    @pytest.mark.parametrize(
        "R, T, d_t",
        [(1000, 4000, 6.0), (1000, 3500, 6.0), (1000, 800, 0.9)],
        ids=["above_threshold", "further_above_threshold", "no_transition"],
    )
    def test_density_evolution_branch_matches_monte_carlo(self, R, T, d_t):
        """Past threshold and with no transition the rate follows the DE
        fixed point, where the law alone saturates at nu_star or reads 0.

        The law alone gives 0.332 and 0.372 on the two rows above threshold
        and 0 on the subcritical one; Monte Carlo gives 0.442, 0.460 and
        0.338 (200 trials, seed 5).
        """
        model = DegreeModel(R=R, T=T, d_t=d_t, epsilon=0.5)
        sol = find_threshold(model)
        assert sol.no_transition or sol.eps_star < model.epsilon
        mc = mc_parent_graph_erasure(model, trials=200, seed=5)
        assert abs(bit_erasure_rate(model, sol) - mc.mean) <= 3.0 * mc.stderr


class TestDEFloor:
    """Up to threshold bit_erasure_rate floors the law at the DE rate taken
    on the trivial branch, x_lo from the orbit from x = 0.  Below threshold
    the DE orbit from x = 1 ends there too, so the floor is the full DE
    rate, and a capped orbit from 0, which would sit below x_lo and make
    the floor low, never occurs."""

    SPECS = [
        BudgetSpec(C=float(c), varsigma=2e5, tau=8e5) for c in (1e21, 1e23, 1e25)
    ] + [BudgetSpec(C=c, d_t=d_t) for d_t in (6.0, 3.0, 1.5) for c in np.geomspace(6e4, 6e7, 4)]

    def test_floor_is_the_de_rate_below_threshold(self):
        rows = floored = 0
        for spec in self.SPECS:
            eps = spec.epsilon
            for r in _geometric_ints(*_r_bounds(spec), 64).tolist():
                m = DegreeModel(R=r, T=int(spec.C_prime // r), d_t=spec.d_t, epsilon=eps)
                sol = find_threshold(m)
                if sol.on_junk_cut or sol.no_transition or eps > sol.eps_star:
                    continue
                x_lo = _trivial_branch(m, eps)
                assert x_lo == _trivial_branch(m, eps, max_iter=10**6), (spec, r)
                floor = eps * m.L(1.0 - m.rho(1.0 - x_lo))
                de = threshold.de_bit_erasure(m, eps)
                assert floor == pytest.approx(de, rel=1e-8, abs=0.0), (spec, r)
                assert bit_erasure_rate(m, sol) >= floor
                rows += 1
                floored += floor > 0.0
        assert rows >= 600 and floored >= 400


class TestJunkCutErasure:
    """On the junk cut the erasure rate is density evolution's, not the law's.

    R=206, T=48, d_t=6, eps=0.5: the waterfall law would give 0.246
    against 0.498 from the independent parent-graph simulation.
    """

    MODEL = DegreeModel(R=206, T=48, d_t=6.0, epsilon=0.5)

    @pytest.fixture(scope="class")
    def mc(self):
        return mc_parent_graph_erasure(self.MODEL, trials=400, seed=1)

    def test_bit_erasure_rate_matches_monte_carlo(self, mc):
        sol = find_threshold(self.MODEL)
        assert sol.on_junk_cut and not sol.no_transition
        assert abs(bit_erasure_rate(self.MODEL, sol) - mc.mean) <= 3.0 * mc.stderr

    def test_prob_concept_unlearned_matches_monte_carlo(self, mc):
        sol = find_threshold(self.MODEL)
        got = prob_concept_unlearned(self.MODEL, sol)
        assert abs(got - mc.mean / 0.5) <= 3.0 * mc.stderr / 0.5


class TestProbConceptUnlearned:
    def test_zero_rate_gives_zero(self):
        # L(0) = (1 - p)**T underflows, so the DE floor is 0 as well
        m = DegreeModel(R=100, T=20000, d_t=4.0, epsilon=0.5)
        sol = ThresholdSolution(eps_star=1.0, x_star=0.2, nu_star=0.0, alpha=0.5)
        assert prob_concept_unlearned(m, sol) == 0.0

    def test_saturated_rate_clamps_to_one(self):
        # deep failure with nu_star = eps: every erased concept stays unknown
        m = DegreeModel(R=10**6, T=10**6, d_t=6.0, epsilon=0.5)
        sol = ThresholdSolution(eps_star=0.1, x_star=0.3, nu_star=0.5, alpha=0.5)
        assert prob_concept_unlearned(m, sol) == 1.0

    def test_midrange_matches_monte_carlo_fraction(self, near_threshold_mc):
        model, sol, mc = near_threshold_mc
        got = prob_concept_unlearned(model, sol)
        mc_fraction = mc.mean / model.epsilon
        assert 0.5 <= got / mc_fraction <= 2.0


class TestQExpressionShape:
    def test_monotone_in_size_on_each_side(self):
        """With the solution constants held fixed, growing R sharpens the law:
        the rate falls when operating below threshold and rises above it.
        At T = 10**6 every L(0) underflows, so the DE rate is 0 and the law
        is the rate."""
        sol = ThresholdSolution(eps_star=0.5, x_star=0.3, nu_star=0.8, alpha=0.6)
        sizes = [200, 400, 800, 1600, 3200]
        below = [
            bit_erasure_rate(DegreeModel(R=R, T=10**6, d_t=3.0, epsilon=0.45), sol)
            for R in sizes
        ]
        assert all(a > b for a, b in zip(below, below[1:]))
        above = [
            bit_erasure_rate(DegreeModel(R=R, T=10**6, d_t=3.0, epsilon=0.55), sol)
            for R in sizes
        ]
        assert all(a < b for a, b in zip(above, above[1:]))
