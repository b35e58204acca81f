"""Tests for density evolution, the threshold solver, and the waterfall law."""

import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import lambertw

from scaling_lens.degree import DegreeModel, PoissonLimit, PolynomialPair
from scaling_lens.optimizer import BudgetSpec, _geometric_ints, _r_bounds, isoflop_curve
from scaling_lens.peeling import mc_parent_graph_erasure
from scaling_lens import threshold
from scaling_lens.threshold import (
    SolverWarning,
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


def de_orbit_end(model, eps, x, stop_below=-1.0, max_iter=10**7):
    """End of the DE orbit x <- eps*g(x) from x: where its steps fall below
    1e-12 relative, or its first iterate at or below stop_below."""
    for _ in range(max_iter):
        x_next = eps * model.g(x)
        if x_next <= stop_below or abs(x_next - x) <= 1e-15 + 1e-12 * x_next:
            return x_next
        x = x_next
    raise AssertionError(f"DE orbit did not settle at eps={eps!r}")


def orbits_split(model, eps):
    """Two-orbit oracle: do the DE orbits from x = 0 and x = 1 end apart?

    The orbit from 0 ends on the smallest fixed point and the one from 1 on
    the largest, so they end apart exactly where a non-trivial fixed point
    exists: the first eps where they split is the BP threshold (Richardson
    & Urbanke, Modern Coding Theory, 2008).  The oracle shares only g with
    the solver, and no search over x.
    """
    meet = de_orbit_end(model, eps, 0.0) * (1.0 + 1e-6) + 1e-15
    return de_orbit_end(model, eps, 1.0, stop_below=meet) > meet


def first_split(model, lo, hi, tol=2.5e-10):
    """Bisection for the eps in (lo, hi] where the orbits start to split."""
    assert not orbits_split(model, lo) and orbits_split(model, hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if orbits_split(model, mid):
            hi = mid
        else:
            lo = mid
    return hi


# the eps values a crossover's orbits are compared at
SPLIT_SCAN = np.linspace(0.01, 1.0, 100)


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

    def test_threshold_nondecreasing_in_texts(self):
        """More texts never hurt: a transition at T1 puts eps_star at T2 no
        lower, at fixed R and d_t.  A crossover at T1, whose sentinel 1 more
        texts may undercut with a real transition, shows no jump at all."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            R = int(rng.integers(50, 2000))
            d_t = float(rng.uniform(1.5, 8.0))
            T1 = int(rng.integers(R, 4 * R))
            T2 = int(T1 * rng.uniform(1.1, 3.0))
            m1 = DegreeModel(R=R, T=T1, d_t=d_t)
            s1 = find_threshold(m1)
            if s1.no_transition:
                assert not any(orbits_split(m1, eps) for eps in SPLIT_SCAN), m1
                continue
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

    # (R, T, d_t); the ids of the d_t = 6 models are R-T
    CROSSOVERS = [
        (65195, 15977, 6.0), (206166, 50525, 6.0), (5242, 1907, 6.0), (605, 165, 6.0),
        (206, 48, 6.0), (471, 212, 6.0), (3188, 840, 8.36),
    ]

    @pytest.mark.parametrize(
        "R, T, d_t",
        CROSSOVERS,
        ids=[f"{R}-{T}" if d_t == 6.0 else f"{R}-{T}-{d_t}" for R, T, d_t in CROSSOVERS],
    )
    def test_junk_dominated_models_match_predicate_scan(self, R, T, d_t):
        """Large lam(0) seeds a junk fixed point at every eps.  On these
        models it grows with eps and never jumps: the solver reports no
        transition, and the DE orbits from x = 0 and x = 1 end together at
        each of 100 eps values."""
        model = DegreeModel(R=R, T=T, d_t=d_t)
        assert model.lam(0.0) > 0.05
        sol = find_threshold(model)
        assert sol.no_transition
        assert not any(orbits_split(model, eps) for eps in SPLIT_SCAN)

    @pytest.mark.parametrize(
        "R, T, d_t",
        [(1000, 4500, 6.0), (727, 1375, 1.5), (4081, 1765, 7.62), (297, 43, 18.8)],
    )
    def test_threshold_is_where_the_orbits_split(self, R, T, d_t):
        """Bisection on the two-orbit oracle lands within 1e-9 of eps_star,
        and the orbits end together at every scanned eps below it.
        297/43/18.8 has a large lam(0) and a small jump: the orbit from 0
        ends near 0.0225 and the one from 1 near 0.0279 just above eps_star."""
        model = DegreeModel(R=R, T=T, d_t=d_t)
        sol = find_threshold(model)
        assert not sol.no_transition
        eps_star = sol.eps_star
        below = SPLIT_SCAN[SPLIT_SCAN < eps_star - 1e-6]
        assert not any(orbits_split(model, eps) for eps in below)
        first = first_split(model, eps_star - 1e-6, eps_star + 3e-7)
        assert abs(first - eps_star) <= 1e-9, (first, eps_star)


def random_models(seed, count, ensemble=DegreeModel):
    """count seeded models: R log-uniform over [10, 1e7], d_t up to 20,
    T*d_t/R log-uniform over [0.05, 60] and eps uniform over [0.05, 1]."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(count):
        R = int(np.exp(rng.uniform(np.log(10), np.log(1e7))))
        d_t = float(rng.uniform(0.5, min(20.0, R - 1)))
        T = max(1, int(R * np.exp(rng.uniform(np.log(0.05), np.log(60))) / d_t))
        models.append(ensemble(R=R, T=T, d_t=d_t, epsilon=float(rng.uniform(0.05, 1.0))))
    return models


def poisson_threshold(model):
    """(eps_star, x_star) of a PoissonLimit in closed form, or None.

    With a = (T - 1)p and b = (R/eps - 1)p, g(x) = exp(-a*exp(-b*x)), and
    d/dx log(x/g(x)) = 0 reads v*exp(-v) = 1/a at v = b*x.  Real roots need
    a > e; the larger one, v_m = -W_{-1}(-1/a), is the tangency, with
    x_star = v_m/b and eps_star = x_star*exp(1/v_m).
    """
    a = (model.T - 1.0) * model.p
    b = (model.R / model.epsilon - 1.0) * model.p
    if a <= math.e:
        return None
    v_m = -float(lambertw(-1.0 / a, k=-1).real)
    x_star = v_m / b
    return x_star * math.exp(1.0 / v_m), x_star


class TestPoissonClosedForm:
    """The solve of a PoissonLimit against its closed-form threshold: the
    same transition or crossover, eps_star within 1e-13 relative and
    x_star within 1e-11 relative, on either side (the solve and W_{-1}
    both round)."""

    # (R, T, d_t, eps)
    MODELS = [
        (14545, 71616, 6.0, 0.5), (1000, 4500, 6.0, 0.5), (100, 200, 4.0, 0.5),
        (119, 840, 6.0, 0.5), (2 * 10**6, 4 * 10**6, 6.0, 0.5), (500, 700, 3.0, 0.5),
        (3250, 19843, 7.62, 0.5), (1000, 4500, 6.0, 0.3), (10, 12, 6.0, 0.5),
        (1000, 800, 6.0, 0.9),
    ]

    @staticmethod
    def check(model):
        sol, closed = find_threshold(model), poisson_threshold(model)
        if closed is None or closed[0] > 1.0:
            assert sol.no_transition, model
            return False
        eps_star, x_star = closed
        assert not sol.no_transition, model
        assert sol.eps_star == pytest.approx(eps_star, rel=1e-13, abs=0.0), model
        assert sol.x_star == pytest.approx(x_star, rel=1e-11, abs=0.0), model
        return True

    @pytest.mark.parametrize("R, T, d_t, eps", MODELS)
    def test_model_matches_closed_form(self, R, T, d_t, eps):
        assert self.check(PoissonLimit(R=R, T=T, d_t=d_t, epsilon=eps))

    def test_random_models_match_closed_form(self):
        found = [self.check(m) for m in random_models(27, 1000, PoissonLimit)]
        assert 200 < sum(found) < 800


def grid_turning_points(model):
    """Turning points of the finite part of x/g(x) on X_GRID."""
    with np.errstate(divide="ignore", over="ignore"):
        ratio = threshold.X_GRID / model.g(threshold.X_GRID)
    steps = np.sign(np.diff(ratio[np.isfinite(ratio)]))
    steps = steps[steps != 0.0]
    return int(np.count_nonzero(steps[1:] != steps[:-1]))


class TestOneWell:
    """x/g(x) has at most one interior minimum: on X_GRID its finite part
    turns at most twice, at the top of the junk well's rise and at the
    threshold.  So the argmin from the first turning point on is the
    threshold, with no second well to tie with."""

    def test_at_most_two_turning_points(self):
        specs = [BudgetSpec(C=c, d_t=6.0) for c in (6e5, 6e6, 6e7)]  # isoflop_desk.txt
        specs += [  # frontier_paper_scale.txt
            BudgetSpec(C=c, varsigma=2e5, tau=8e5) for c in np.geomspace(1e21, 1e25, 9).tolist()
        ]
        models = [
            DegreeModel(R=r, T=int(spec.C_prime // r), d_t=spec.d_t)
            for spec in specs
            for r in _geometric_ints(*_r_bounds(spec), 64).tolist()
        ]
        models += random_models(5, 600)
        counts = np.bincount([grid_turning_points(m) for m in models], minlength=3)
        assert counts.size == 3 and counts.min() > 0, counts
        assert grid_turning_points(PAIR_36) == 1


# the C = 1e21 optimum of configs/frontier_paper_scale.txt
FRONTIER_R, FRONTIER_T = 14545, 71616


class TestErrorState:
    """find_threshold silences divide and overflow warnings only while it
    solves: numpy's error state is the caller's again afterwards."""

    CASES = {
        "clean": DegreeModel(R=1000, T=4500, d_t=6.0),
        "crossover": DegreeModel(R=206, T=48, d_t=6.0),
        "no_transition": DegreeModel(R=1000, T=800, d_t=0.9),
        # lam(0) underflows to 0, so x/g(x) divides by zero at low x
        "data_rich": DegreeModel(R=100, T=20000, d_t=6.0),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_error_state_is_restored_without_warnings(self, name):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            find_threshold(self.CASES[name])
        assert np.geterr() == before

    def test_data_rich_grid_divides_by_zero(self):
        model = self.CASES["data_rich"]
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            threshold.X_GRID / model.g(threshold.X_GRID)


class TestIterationCapWarning:
    def test_cap_hit_warns_once_with_eps_and_x(self):
        model = DegreeModel(R=206, T=48, d_t=6.0)
        with pytest.warns(SolverWarning) as record:
            x = _trivial_branch(model, 0.5, max_iter=3)
        assert len(record) == 1
        message = str(record[0].message)
        assert "cap 3" in message and "eps=0.5" in message
        assert f"x={x:.12g}" in message

    def test_converged_orbit_is_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            threshold.de_fixed_point(DegreeModel(R=1000, T=4500, d_t=6.0), 0.5)
        assert caught == []


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
            PoissonLimit(R=100, T=200, d_t=4.0, epsilon=0.5),
            PoissonLimit(R=10, T=12, d_t=6.0, epsilon=0.5),
        ):
            num, _ = integrate.quad(lambda x: m.gen("rho", x), 0.0, 1.0, epsabs=1e-13)
            den, _ = integrate.quad(lambda x: m.gen("lam", x), 0.0, 1.0, epsabs=1e-13)
            np.testing.assert_allclose(matching_upper_bound(m), num / den, rtol=1e-9)

    def test_polynomial_pair_closed_form(self):
        # int x^5 = 1/6, int x^2 = 1/3
        assert matching_upper_bound(PAIR_36) == pytest.approx(0.5, abs=1e-14)

    def test_bits_are_pinned(self):
        """The model of configs/threshold_rate_half.txt, in both evaluation
        modes, and the (3,6) pair keep these exact values."""
        m = DegreeModel(R=1000, T=4500, d_t=6.0, epsilon=0.5)
        assert matching_upper_bound(m) == float.fromhex("0x1.1fff9026105c3p+1")
        mp = PoissonLimit(R=1000, T=4500, d_t=6.0, epsilon=0.5)
        assert matching_upper_bound(mp) == float.fromhex("0x1.201408cde91c9p+1")
        assert matching_upper_bound(PAIR_36) == 0.5

    def test_solver_reads_ensembles_only_through_their_interface(self):
        """threshold.py neither branches on the ensemble's type or mode nor
        reads its exponents or edge probability: degree.py owns those."""
        src = Path(threshold.__file__).read_text(encoding="utf-8")
        for word in ("isinstance", "eval_mode", "_exponent", "PolynomialPair"):
            assert word not in src
        assert not re.search(r"model\.p\b", src)


def mp_ensemble(model):
    """(gen, L'(1)) of a PolynomialPair or DegreeModel in mpmath.

    gen(which, x, order) evaluates a generating function or a derivative
    term by term, or as n(n - 1)...*p**order*(p*x + 1 - p)**(n - order),
    so the only shared ingredient with the implementation is the displayed
    formulas.
    """
    if isinstance(model, PolynomialPair):
        lam = [mpmath.mpf(c) for c in model.lam_coeffs]
        lp1 = 1 / sum(c / (i + 1) for i, c in enumerate(lam))
        coeffs = {
            "lam": lam,
            "rho": [mpmath.mpf(c) for c in model.rho_coeffs],
            "L": [0] + [c * lp1 / (i + 1) for i, c in enumerate(lam)],
        }

        def gen(which, x, order=0):
            terms = enumerate(coeffs[which])
            return sum(c * mpmath.ff(i, order) * x ** (i - order) for i, c in terms if i >= order)

        return gen, lp1
    p = mpmath.mpf(model.d_t) / model.R
    n = {"L": mpmath.mpf(model.T), "lam": mpmath.mpf(model.T - 1)}
    n["rho"] = model.R / mpmath.mpf(model.epsilon) - 1

    def gen(which, x, order=0):
        return mpmath.ff(n[which], order) * p**order * (p * x + 1 - p) ** (n[which] - order)

    return gen, model.T * p


def alpha_reference(model, x_star, eps_star, dps=50):
    """Mirror of the scaling-slope expression in 50-digit arithmetic."""
    with mpmath.workdps(dps):
        gen, lp1 = mp_ensemble(model)
        xs, es = mpmath.mpf(x_star), mpmath.mpf(eps_star)
        xb = 1 - xs
        y = 1 - gen("rho", xb)
        num_text = (
            gen("rho", xb) ** 2
            - gen("rho", xb * xb)
            + gen("rho", xb, 1) * (1 - 2 * xs * gen("rho", xb))
            - xb**2 * gen("rho", xb * xb, 1)
        )
        den_text = lp1 * gen("lam", y) ** 2 * gen("rho", xb, 1) ** 2
        num_conc = es**2 * (gen("lam", y) ** 2 - gen("lam", y * y) - y * y * gen("lam", y * y, 1))
        den_conc = lp1 * gen("lam", y) ** 2
        return float(mpmath.sqrt(num_text / den_text + num_conc / den_conc))


def tangency_reference(model, x0, dps=50):
    """(x_star, eps_star, nu_star, alpha) in 50-digit arithmetic: x_star the
    root of g(x) = x*g'(x), where d/dx log(x/g(x)) = 0, found from x0;
    eps_star = x_star/g(x_star), nu_star = eps_star*L(y), y = g's inner
    1 - rho(1 - x_star), and alpha the mirror's at that point."""
    with mpmath.workdps(dps):
        gen, _ = mp_ensemble(model)

        def excess(x):  # g(x) - x*g'(x)
            y = 1 - gen("rho", 1 - x)
            return gen("lam", y) - x * gen("lam", y, 1) * gen("rho", 1 - x, 1)

        x_star = mpmath.findroot(excess, mpmath.mpf(x0))
        y = 1 - gen("rho", 1 - x_star)
        eps_star = x_star / gen("lam", y)
        alpha = alpha_reference(model, x_star, eps_star, dps)
        return float(x_star), float(eps_star), float(eps_star * gen("L", y)), alpha


class TestTangencyOracle:
    """x_star, eps_star, nu_star and alpha against tangency_reference, on
    frontier and data-rich models, a junk-dominated one (297/43/18.8) and
    the (3,6) pair: x_star to 1e-12 and eps_star to 1e-14 relative."""

    MODELS = {
        **{
            f"{R}-{T}": DegreeModel(R=R, T=T, d_t=6.0)
            for R, T in ((14545, 71616), (12668, 61067), (1000, 4500), (119, 840), (400, 2500))
        },
        "297-43-18.8": DegreeModel(R=297, T=43, d_t=18.8),
        "3-6": PAIR_36,
    }

    @pytest.mark.parametrize("name", MODELS)
    def test_solution_is_the_mpmath_tangency(self, name):
        model = self.MODELS[name]
        sol = find_threshold(model)
        x_star, eps_star, nu_star, alpha = tangency_reference(model, sol.x_star)
        assert sol.x_star == pytest.approx(x_star, rel=1e-12, abs=0.0)
        assert sol.eps_star == pytest.approx(eps_star, rel=1e-14, abs=0.0)
        assert sol.nu_star == pytest.approx(nu_star, rel=1e-12, abs=0.0)
        assert sol.alpha == pytest.approx(alpha, rel=1e-12, abs=0.0)


class Doctored:
    """model with some (which, order) terms of its float path read as 0, as
    if they underflowed; g on an array, the grid pass, is model's own."""

    def __init__(self, model, zeroed):
        self.model, self.zeroed = model, zeroed

    def __getattr__(self, name):
        return getattr(self.model, name)

    def _gen_at(self, x, terms):
        values = self.model._gen_at(x, terms)
        return [0.0 if term in self.zeroed else v for term, v in zip(terms, values)]


class TestNewtonGuards:
    """Newton from the grid argmin keeps the grid minimum wherever it may
    not step: raising and warning nothing, find_threshold returns the grid
    argmin and its x/g(x) (or no transition, where that is above 1).  The
    float path's values are Python floats, so a division by a zero g or
    g'' would raise ZeroDivisionError."""

    CASES = {
        # x/g(x) falls up to x = 1; the step from there goes to x = 0.96,
        # where x/g(x) is higher
        "right_end": (DegreeModel(R=1000, T=100000, d_t=1.0), ()),
        # x/g(x) falls up to x = 1; the step from there leaves (0, 1] for 1.24
        "step_leaves": (DegreeModel(R=1000, T=29600, d_t=2.5), ()),
        "g_underflows": (DegreeModel(R=1000, T=4500, d_t=6.0), (("lam", 0),)),
        "zero_g2": (DegreeModel(R=1000, T=4500, d_t=6.0), (("lam", 2), ("rho", 2))),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_guarded_solve_keeps_the_grid_minimum(self, name):
        model, zeroed = self.CASES[name]
        model = Doctored(model, zeroed) if zeroed else model
        with np.errstate(divide="ignore", over="ignore"):
            ratio = threshold.X_GRID / model.g(threshold.X_GRID)
        start = int(np.flatnonzero(ratio[1:] <= ratio[:-1])[0])
        i = start + int(np.argmin(ratio[start:]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = find_threshold(model)
            minimum = threshold._min_above(model, start, ratio)
        assert minimum == (ratio[i], threshold.X_GRID[i])
        assert sol.eps_star == min(minimum[0], 1.0)
        assert sol.no_transition == (name in ("right_end", "step_leaves"))


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
        mp_ = PoissonLimit(R=2 * 10**6, T=4 * 10**6, d_t=6.0, epsilon=0.5)
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


def gen_call_terms(model, x_star):
    """The tangent terms by one array-path generating-function call per
    function and order, as the solver evaluated them before the terms
    shared their log terms."""
    xbar = 1.0 - x_star
    pair = np.array([xbar, xbar * xbar])
    rho_xb, rho_xb2 = model.rho(pair).tolist()
    drho_xb, drho_xb2 = model.rho(pair, 1).tolist()
    y = 1.0 - rho_xb
    lam_y, lam_y2 = model.lam(np.array([y, y * y])).tolist()
    dlam_y2 = model.lam(np.array([y * y]), 1)[0]
    l_y = model.L(np.array([y]))[0]
    return rho_xb, rho_xb2, drho_xb, drho_xb2, lam_y, lam_y2, dlam_y2, l_y


class TestTangentTerms:
    MODELS = {
        "frontier_optimum": DegreeModel(R=FRONTIER_R, T=FRONTIER_T, d_t=6.0),
        "frontier_poisson": PoissonLimit(R=FRONTIER_R, T=FRONTIER_T, d_t=6.0),
        # a large lam(0) and a real tangency above it
        "small_jump": DegreeModel(R=297, T=43, d_t=18.8),
        "data_rich": DegreeModel(R=100, T=20000, d_t=6.0),
    }

    @pytest.mark.parametrize("name", MODELS)
    def test_terms_match_one_gen_call_each(self, name):
        """Sharing one log term per point changes no bit of nu_star or alpha."""
        model = self.MODELS[name]
        sol = find_threshold(model)
        assert not sol.no_transition
        want = gen_call_terms(model, sol.x_star)
        got = threshold._tangent_terms(model, sol.x_star)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert sol.nu_star == sol.eps_star * want[-1]
        alpha = threshold._alpha(model, sol.x_star, sol.eps_star, want)
        assert sol.alpha == alpha == scaling_alpha(model, sol.x_star, sol.eps_star)


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
                if sol.no_transition or eps > sol.eps_star:
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
    """A junk-dominated crossover has density evolution's erasure rate.

    R=206, T=48, d_t=6, eps=0.5 has no transition.  A waterfall law at
    eps_star = 0.510, a minimum of x/g(x) inside the junk well, would give
    0.246 against 0.498 from the independent parent-graph simulation.
    """

    MODEL = DegreeModel(R=206, T=48, d_t=6.0, epsilon=0.5)

    @pytest.fixture(scope="class")
    def mc(self):
        return mc_parent_graph_erasure(self.MODEL, trials=400, seed=1)

    def test_bit_erasure_rate_matches_monte_carlo(self, mc):
        sol = find_threshold(self.MODEL)
        assert sol.no_transition
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
