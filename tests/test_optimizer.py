"""Tests for budget-constrained allocation and compute-optimal scaling fits."""

import math

import numpy as np
import pytest

from scaling_lens import optimizer, threshold
from scaling_lens.degree import BinomialRows, DegreeModel, binomial_gen
from scaling_lens.optimizer import (
    COARSE_POINTS_PER_DECADE,
    BudgetSpec,
    EmptyGrid,
    InsufficientPoints,
    expected_learned,
    interior_maxima,
    isoflop_curve,
    optimize_budget,
    scaling_exponents,
    smooth3,
    _bounded_argmax,
    _geometric_ints,
    _r_bounds,
    _row_bounds,
)
from scaling_lens.peeling import mc_expected_learned, mc_parent_graph_erasure
from scaling_lens.threshold import bit_erasure_rate, find_threshold


class TestBudgetSpec:
    def test_cell_budget(self):
        spec = BudgetSpec(C=5.76e23, varsigma=2e5, tau=8e5)
        assert spec.C_prime == pytest.approx(6.0e11, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetSpec(C=-1.0)
        with pytest.raises(ValueError):
            BudgetSpec(C=1e6, epsilon=1.0)
        with pytest.raises(ValueError):
            BudgetSpec(C=1.0)  # C' would be 1/6

    @pytest.mark.parametrize("field", ["C", "varsigma", "tau", "d_t", "epsilon"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, field, bad):
        """An infinite budget used to pass and overflow in int(C')."""
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BudgetSpec(**{"C": 1e6, field: bad})


class TestExpectedLearned:
    def test_data_rich_regime_learns_everything(self):
        """With texts to spare the threshold sits far above eps: objective ~ R."""
        spec = BudgetSpec(C=6e6, d_t=6.0)
        obj = expected_learned(2000, 40000, spec)
        assert obj / 2000 > 0.999

    def test_data_rich_no_transition(self):
        # d_t < 1 with huge T: peeling always completes, objective is R minus
        # only the isolated-concept mass, which is ~e^(-18) here
        spec = BudgetSpec(C=600.0, d_t=0.9)
        assert expected_learned(100, 2000, spec) / 100 > 0.999999

    def test_subcritical_no_transition_uses_density_evolution(self):
        """A starved text side cannot teach isolated concepts.

        The no-transition solution carries no waterfall law, so the rate
        comes from the density-evolution fixed point; Monte Carlo confirms
        the composition (a literal P_b = 0 reading would predict obj = R,
        five times the truth here).
        """
        spec = BudgetSpec(C=600.0, d_t=0.9)
        obj = expected_learned(300, 150, spec)
        assert obj / 300 < 0.5
        mc = mc_expected_learned(R=300, T=150, d_t=0.9, trials=2000, seed=6)
        assert abs(obj - mc.mean) <= 3 * mc.stderr

    def test_deep_failure_matches_monte_carlo(self):
        """(R=500, T=1000, d_t=6): far above threshold, within 3 MC stderr."""
        spec = BudgetSpec(C=6e6, d_t=6.0)
        obj = expected_learned(500, 1000, spec)
        mc = mc_expected_learned(R=500, T=1000, d_t=6.0, trials=2000, seed=12)
        assert abs(obj - mc.mean) <= 3 * mc.stderr

    def test_is_the_rate_composition(self):
        """Wiring check: the objective is built from the one public rate,
        in every regime of bit_erasure_rate."""
        cases = {
            "above threshold, deep": (400, 900, 6.0),
            "below threshold": (150, 2000, 6.0),
            "above threshold, near eps_star": (1000, 4000, 6.0),
            "no transition, crossover": (206, 48, 6.0),
            "no transition": (1000, 800, 0.9),
        }
        for regime, (R, T, d_t) in cases.items():
            model = DegreeModel(R=R, T=T, d_t=d_t, epsilon=0.5)
            sol = find_threshold(model)
            assert regime.startswith(
                "no transition" if sol.no_transition
                else "above" if sol.eps_star < 0.5 else "below"
            ), (regime, sol)
            frac = min(1.0, bit_erasure_rate(model, sol) / 0.5)
            np.testing.assert_allclose(
                expected_learned(R, T, BudgetSpec(C=6e6, d_t=d_t)), R * (1 - frac), rtol=1e-12
            )

    def test_no_row_learns_concepts_no_text_covers(self):
        """A concept that appears in no text can never be learned, so no
        experiment learns more than R*(1 - L(0)), L(0) = (1 - p)**T.  At
        d_t = 1.5, eps = 0.5, R = 727, T = 1375 that ceiling is 684.52.  The
        row is below threshold, where the law alone would learn all 727;
        the DE floor of bit_erasure_rate gives 668.20, and both Monte-Carlo
        experiments land within 3 stderr of it."""
        R, T, d_t, eps = 727, 1375, 1.5, 0.5
        ceiling = R * (1.0 - (1.0 - d_t / R) ** T)
        assert ceiling == pytest.approx(684.52, abs=0.01)
        model = DegreeModel(R=R, T=T, d_t=d_t, epsilon=eps)
        assert find_threshold(model).eps_star > eps
        obj = expected_learned(R, T, BudgetSpec(C=6e6, d_t=d_t, epsilon=eps))
        assert obj <= ceiling
        parent = mc_parent_graph_erasure(model, trials=2000, seed=1)
        assert abs(obj - R * (1.0 - parent.mean / eps)) <= 3 * R * parent.stderr / eps
        learned = mc_expected_learned(R=R, T=T, d_t=d_t, trials=2000, seed=1)
        assert abs(obj - learned.mean) <= 3 * learned.stderr

    def test_input_validation(self):
        spec = BudgetSpec(C=6e6, d_t=6.0)
        with pytest.raises(ValueError):
            expected_learned(0, 10, spec)
        with pytest.raises(ValueError):
            expected_learned(10, 0, spec)


@pytest.fixture(scope="module")
def desk_curve():
    return isoflop_curve(BudgetSpec(C=6e5, d_t=6.0))


@pytest.fixture(scope="module")
def desk_specs():
    # C' spans 1e4 .. 1e7 (three decades) at desk scale
    return [BudgetSpec(C=c, d_t=6.0) for c in np.geomspace(6e4, 6e7, 7)]


@pytest.fixture(scope="module")
def desk_fit_and_opts(desk_specs):
    opts = [optimize_budget(s) for s in desk_specs]
    return scaling_exponents(desk_specs, opts), opts


class TestIsoflopCurve:
    def test_head_is_data_rich(self, desk_curve):
        assert desk_curve.objective[0] / desk_curve.R[0] > 0.9

    def test_tail_collapses(self, desk_curve):
        """T -> 1 starves the text side; the tail learns almost nothing."""
        assert desk_curve.objective[-1] / desk_curve.R[-1] < 0.1

    def test_single_interior_maximum_after_smoothing(self, desk_curve):
        sm = smooth3(desk_curve.objective)
        assert interior_maxima(sm, tol=1e-6 * sm.max()) == 1

    def test_budget_feasible_everywhere(self, desk_curve):
        spec = desk_curve.spec
        assert np.all(desk_curve.R * desk_curve.T <= spec.C_prime)
        n = spec.varsigma * desk_curve.R
        d = spec.tau * desk_curve.T
        assert np.all(6.0 * n * d <= spec.C)

    def test_crossovers_are_flagged(self, desk_curve):
        """no_transition marks the rows whose eps_star is the sentinel 1:
        the starved tail, where T/R is below about 0.45."""
        flagged = desk_curve.no_transition
        assert flagged.dtype == bool and flagged.shape == desk_curve.R.shape
        assert np.all(desk_curve.eps_star[flagged] == 1.0)
        assert np.all(desk_curve.eps_star[~flagged] < 1.0)
        assert not flagged[0] and flagged[-1]
        assert np.all(desk_curve.T[flagged] / desk_curve.R[flagged] < 0.46)

    def test_objective_bounds(self, desk_curve):
        assert np.all(desk_curve.objective >= 0.0)
        assert np.all(desk_curve.objective <= desk_curve.R)

    def test_custom_grid_and_empty_grid(self):
        # any grid density keeps both ends of [R_min, C'], so a feasible
        # budget never gives an empty grid
        spec = BudgetSpec(C=6e5, d_t=6.0)
        cur = isoflop_curve(spec, points_per_decade=2)
        assert (cur.R[0], cur.R[-1]) == (7, 100000)  # R_min, C'
        assert np.all(np.diff(cur.R) > 0)
        with pytest.raises(EmptyGrid):
            isoflop_curve(BudgetSpec(C=30.0, d_t=6.0))  # C' = 5 < R_min


class TestOptimizeBudget:
    def test_tiny_budget_exhaustive(self):
        """C' = 4 has feasible points {(1,4),(2,2),(3,1),(4,1)}; the optimizer
        must return the exact global maximum."""
        spec = BudgetSpec(C=24.0, d_t=0.5)
        opt = optimize_budget(spec)
        values = {
            (r, int(4 // r)): expected_learned(r, int(4 // r), spec) for r in (1, 2, 3, 4)
        }
        best = max(values.values())
        assert opt.objective == best
        assert values[(opt.R_star, opt.T_star)] == best
        # the three budget-binding candidates dominate the scan
        assert best == max(values[k] for k in ((1, 4), (2, 2), (4, 1)))

    @pytest.mark.parametrize(
        "spec",
        [BudgetSpec(C=3600.0, d_t=6.0), BudgetSpec(C=1200.0, d_t=2.5, epsilon=0.3)],
        ids=["C'=600", "C'=200,eps=0.3"],
    )
    def test_small_budget_matches_brute_force(self, spec):
        """The bounded integer scan returns the first maximum over every R."""
        r_lo, r_hi = _r_bounds(spec)
        assert r_hi - r_lo + 1 <= optimizer.EXHAUSTIVE_LIMIT
        values = {
            r: expected_learned(r, int(spec.C_prime // r), spec)
            for r in range(r_lo, r_hi + 1)
        }
        best_r = max(values, key=values.get)
        opt = optimize_budget(spec)
        assert (opt.R_star, opt.objective) == (best_r, values[best_r])

    def test_carries_full_solution(self):
        """The optimum keeps the full threshold solve of its own model."""
        spec = BudgetSpec(C=6e6, d_t=6.0)
        opt = optimize_budget(spec)
        model = DegreeModel(R=opt.R_star, T=opt.T_star, d_t=6.0, epsilon=0.5)
        assert opt.solution == find_threshold(model)
        assert opt.eps_star_at_opt == opt.solution.eps_star

    def test_budget_binding(self):
        """R*T* <= C' with slack below one floor step, across a 100x C change."""
        for C in (6e5, 6e7):
            spec = BudgetSpec(C=C, d_t=6.0)
            opt = optimize_budget(spec)
            assert opt.R_star * opt.T_star <= spec.C_prime
            assert spec.C_prime - opt.R_star * opt.T_star < opt.R_star

    def test_matches_dense_rescan(self):
        """Golden-section refinement lands on the dense 512/decade argmax."""
        spec = BudgetSpec(C=6e6, d_t=6.0)
        opt = optimize_budget(spec)
        dense = isoflop_curve(spec, points_per_decade=512)
        j = int(np.argmax(dense.objective))
        assert abs(math.log10(opt.R_star / dense.R[j])) < 0.02
        # full-fidelity objective at the optimizer's point is at least the
        # dense argmax re-evaluated at full fidelity
        rival = expected_learned(int(dense.R[j]), int(dense.T[j]), spec)
        assert opt.objective >= rival - 1e-9

    def test_grid_halving_stability(self):
        spec = BudgetSpec(C=6e5, d_t=6.0)
        coarse = isoflop_curve(spec, points_per_decade=64)
        fine = isoflop_curve(spec, points_per_decade=128)
        r_c = coarse.R[int(np.argmax(smooth3(coarse.objective)))]
        r_f = fine.R[int(np.argmax(smooth3(fine.objective)))]
        assert abs(math.log10(r_c / r_f)) < 0.02

    def test_mapping_to_params_and_tokens(self):
        spec = BudgetSpec(C=6e6, varsigma=3.0, tau=5.0, d_t=6.0)
        opt = optimize_budget(spec)
        assert opt.N_star == 3.0 * opt.R_star
        assert opt.D_star == 5.0 * opt.T_star


# configs/frontier_paper_scale.txt
FRONTIER_SPECS = [
    BudgetSpec(C=float(c), varsigma=2e5, tau=8e5, d_t=6.0, epsilon=0.5)
    for c in np.geomspace(1e21, 1e25, 9)
]


def coarse_grid(spec):
    return _geometric_ints(*_r_bounds(spec), COARSE_POINTS_PER_DECADE)


def scan_solves(monkeypatch):
    """Per-call counts of the objective evaluations inside _bounded_argmax."""
    counts = []
    bounded = optimizer._bounded_argmax

    def counted(grid, spec, objective):
        counts.append(0)

        def tally(r):
            counts[-1] += 1
            return objective(r)

        return bounded(grid, spec, tally)

    monkeypatch.setattr(optimizer, "_bounded_argmax", counted)
    return counts


class TestPrunedCoarseScan:
    def test_matches_full_scan_argmax(self, desk_specs):
        """The descending scan stops early yet picks the full scan's index."""
        for spec in FRONTIER_SPECS + desk_specs:
            grid = coarse_grid(spec)
            full = isoflop_curve(spec)
            np.testing.assert_array_equal(full.R, grid)
            j = _bounded_argmax(grid, spec, lambda r: optimizer._evaluate(r, spec)[0])
            assert j == int(np.argmax(full.objective)), spec

    def test_evaluates_fewer_rows_than_grid(self, monkeypatch):
        counts = scan_solves(monkeypatch)
        for spec in FRONTIER_SPECS:
            optimize_budget(spec)
            assert 0 < counts[-1] < coarse_grid(spec).size, spec
        assert len(counts) == len(FRONTIER_SPECS)

    def test_tie_keeps_smallest_R(self):
        """Two separate rows share the best value; the smaller R wins."""
        spec = BudgetSpec(C=6e6, d_t=6.0)
        grid = coarse_grid(spec)
        i0, i1 = 40, 150
        top = float(grid[i0])

        def fake(R):
            return min(float(R), top if R in (grid[i0], grid[i1]) else 0.5 * top)

        values = [fake(int(r)) for r in grid]
        assert values[i0] == values[i1] == max(values)
        assert _bounded_argmax(grid, spec, fake) == int(np.argmax(values)) == i0


# configs/isoflop_desk.txt
ISOFLOP_DESK_SPECS = [BudgetSpec(C=c, d_t=6.0) for c in (6e5, 6e6, 6e7)]


# sparse enough that below threshold the DE floor, not the law, sets the
# rate (R = 922, T = 1084: 879.3 learned, bound 881.3, R*(1 - L(0)) = 895.1)
SPARSE_SPEC = BudgetSpec(C=6e6, d_t=3.0)


# budgets of at most EXHAUSTIVE_LIMIT feasible R, whose scan visits every integer R
SMALL_SPECS = [
    BudgetSpec(C=3600.0, d_t=6.0),
    BudgetSpec(C=1200.0, d_t=2.5, epsilon=0.3),
    BudgetSpec(C=1800.0, d_t=1.5, epsilon=0.7),
]


def assert_rows_within_bounds(grid, spec):
    """Every row, on either side of its threshold, stays at or below its
    stall bound R*(1 - L(1 - rho(1 - x_s))).  Returns the number of rows
    bounded below R."""
    bounds = _row_bounds(grid, spec)
    for r, bound in zip(grid.tolist(), bounds.tolist()):
        assert optimizer._evaluate(r, spec)[0] <= bound, (spec, r)
    return int((bounds < grid).sum())


class TestRowBounds:
    def test_bound_holds_on_every_coarse_row(self, desk_specs):
        """No row of a large budget's geometric grid beats its closed-form
        bound, and the bound rules out some rows but not all."""
        for spec in FRONTIER_SPECS + desk_specs + ISOFLOP_DESK_SPECS + [SPARSE_SPEC]:
            grid = coarse_grid(spec)
            assert 0 < assert_rows_within_bounds(grid, spec) < grid.size

    def test_bound_holds_on_every_small_budget_row(self):
        """The same holds on every integer R of the small budgets that
        optimize_budget scans whole."""
        for spec in SMALL_SPECS:
            r_lo, r_hi = _r_bounds(spec)
            every = np.arange(r_lo, r_hi + 1)
            assert every.size <= optimizer.EXHAUSTIVE_LIMIT
            assert 0 < assert_rows_within_bounds(every, spec) < every.size

    def test_sample_lies_on_the_solver_grid(self, monkeypatch):
        """A sampled x certifies eps* < eps only if the solve minimizes over it."""
        grids = []
        ratio = threshold._ratio

        def spy(model, x):
            grids.append(x)
            return ratio(model, x)

        monkeypatch.setattr(threshold, "_ratio", spy)
        find_threshold(DegreeModel(R=400, T=2500, d_t=6.0))
        sample = optimizer.STALL_SAMPLE
        assert grids[0] is threshold.X_GRID
        assert sample.size == optimizer.STALL_SAMPLE_POINTS
        assert np.isin(sample, grids[0]).all()

    def test_tie_keeps_smallest_R_solved_first(self):
        """Two rows tie.  The smaller R has the larger bound, so it is solved
        first, and the later tie at a larger R does not displace it."""
        spec = BudgetSpec(C=6e6, d_t=6.0)
        grid = coarse_grid(spec)
        bounds = _row_bounds(grid, spec)
        i0, i1 = 5, grid.size - 1
        top = 0.9 * bounds[i1]
        # rows whose L(0) underflows keep R, within the 1e-9 roundoff slack
        assert top < bounds[i1] < bounds[i0] == pytest.approx(grid[i0], rel=2e-9)

        def fake(R):
            return top if R in (grid[i0], grid[i1]) else 0.5 * top

        values = [fake(int(r)) for r in grid]
        assert _bounded_argmax(grid, spec, fake) == int(np.argmax(values)) == i0

    def test_frontier_solves_at_most_5_coarse_rows(self, monkeypatch):
        counts = scan_solves(monkeypatch)
        for spec in FRONTIER_SPECS:
            optimize_budget(spec)
            assert 0 < counts[-1] <= 5, spec
        assert len(counts) == len(FRONTIER_SPECS)


# configs/emergence_multimodal_plateaus.txt
PLATEAUS_SPECS = [BudgetSpec(C=float(c), d_t=6.0) for c in np.geomspace(1e6, 1e16, 121)]


def full_bound_argmax(grid, spec, objective):
    """The scan over every row's stall bound, as _bounded_argmax ran before
    it took the coverage bound first: the reference it must reproduce."""
    bound = optimizer._row_bounds(grid, spec)
    j, best = -1, -math.inf
    for k in np.argsort(-bound, kind="stable").tolist():
        if bound[k] < best:
            break
        v = objective(int(grid[k]))
        if v > best or (v == best and k < j):
            j, best = k, v
    return j


class TestCoverageFirstScan:
    """_bounded_argmax takes stall bounds only on the rows whose coverage
    bound R*(1 - L(0)) can reach the first solved value."""

    @pytest.mark.parametrize("specs", [FRONTIER_SPECS, PLATEAUS_SPECS], ids=["frontier", "plateaus"])
    def test_coverage_bound_is_at_least_every_stall_bound(self, specs):
        """B0 >= the stall bound on every row, and bit-equal where no
        sampled x stalls (x_s = 0)."""
        xs, equal, below = optimizer.STALL_SAMPLE, 0, 0
        for spec in specs:
            grid = coarse_grid(spec)
            cover, bound = optimizer._coverage_bounds(grid, spec), _row_bounds(grid, spec)
            assert (bound <= cover).all(), spec
            # x_s = 0 where no sampled x has x/g(x) <= eps, g composed row by row
            r = grid.astype(np.float64)[:, None]
            t, p = np.floor_divide(spec.C_prime, r), spec.d_t / r
            g = binomial_gen(t - 1.0, p, 1.0 - binomial_gen(r / spec.epsilon - 1.0, p, 1.0 - xs))
            no_stall = ~(xs <= spec.epsilon * (1.0 - 1e-6) * g).any(axis=1)
            assert bound[no_stall].tobytes() == cover[no_stall].tobytes(), spec
            equal += int(no_stall.sum())
            below += int((bound < cover).sum())
        assert equal and below

    @pytest.mark.parametrize("block", [1, optimizer.BOUND_BLOCK])
    def test_visits_and_index_match_the_full_bound_scan(self, block, monkeypatch):
        """The same index and the same ordered list of solved R as the scan
        over every row's bound, on the frontier, plateaus and small budgets;
        with a block of 1 row most budgets take the fallback that bounds
        every row."""
        monkeypatch.setattr(optimizer, "BOUND_BLOCK", block)
        for spec in FRONTIER_SPECS + PLATEAUS_SPECS + SMALL_SPECS:
            r_lo, r_hi = _r_bounds(spec)
            grid = np.arange(r_lo, r_hi + 1) if spec in SMALL_SPECS else coarse_grid(spec)
            values, visits = {}, {"full": [], "coverage": []}

            def objective(name):
                def solve(r):
                    visits[name].append(r)
                    if r not in values:
                        values[r] = optimizer._evaluate(r, spec)[0]
                    return values[r]

                return solve

            want = full_bound_argmax(grid, spec, objective("full"))
            assert _bounded_argmax(grid, spec, objective("coverage")) == want, spec
            assert visits["coverage"] == visits["full"], spec

    def test_matches_the_full_bound_scan_on_synthetic_ties(self, monkeypatch):
        """Random small-integer bounds, coverage bounds and values, full of
        ties: the same index and visits as the full-bound scan, for any
        objective, with every block size."""
        rng = np.random.default_rng(5)
        spec = BudgetSpec(C=6e6)
        for _ in range(400):
            size = int(rng.integers(1, 60))
            grid = np.arange(size) + 10
            cover = rng.integers(0, 12, size).astype(np.float64)
            bound = cover - rng.integers(0, 4, size)
            value = rng.integers(-2, 12, size).astype(np.float64)
            monkeypatch.setattr(optimizer, "BOUND_BLOCK", int(rng.integers(1, 9)))
            monkeypatch.setattr(optimizer, "_coverage_bounds", lambda g, s: cover[g - 10])
            monkeypatch.setattr(optimizer, "_row_bounds", lambda g, s: bound[g - 10])
            visits = {"full": [], "coverage": []}

            def objective(name):
                return lambda r: visits[name].append(r) or float(value[r - 10])

            want = full_bound_argmax(grid, spec, objective("full"))
            assert _bounded_argmax(grid, spec, objective("coverage")) == want
            assert visits["coverage"] == visits["full"]

    def test_frontier_bounds_at_most_160_rows(self, monkeypatch):
        rows = []
        row_bounds = optimizer._row_bounds

        def counted(grid, spec):
            rows[-1] += grid.size
            return row_bounds(grid, spec)

        monkeypatch.setattr(optimizer, "_row_bounds", counted)
        for spec in FRONTIER_SPECS:
            rows.append(0)
            optimize_budget(spec)
            assert 0 < rows[-1] <= 160 < coarse_grid(spec).size, spec


def spy_texts(monkeypatch):
    """Record the T array, L's exponent, of every L(.) evaluation of _row_bounds."""
    seen = []
    complement = BinomialRows.L_complement

    def spy(rows, y):
        seen.append(rows._exponent("L").ravel())
        return complement(rows, y)

    monkeypatch.setattr(BinomialRows, "L_complement", spy)
    return seen


class TestArrayRowBounds:
    """_row_bounds takes every row's texts and bound in one array pass."""

    @pytest.mark.parametrize("C", [6.0 * 720720, 6e6, 1e7])
    def test_texts_are_the_floor_of_the_evaluated_rows(self, C, monkeypatch):
        """T = floor(C'/R) as _evaluate takes it, also where R divides C'."""
        spec = BudgetSpec(C=C, d_t=6.0)
        c = spec.C_prime
        r_lo, r_hi = _r_bounds(spec)
        grid = np.unique(np.concatenate([
            coarse_grid(spec),
            [r for r in range(r_lo, min(r_hi, 20000) + 1) if c % r == 0],
        ])).astype(np.int64)
        exact = [r for r in grid.tolist() if c / r == int(c // r)]
        # only an integer C' has rows where R divides it
        assert (len(exact) >= 10) == (c == int(c))
        seen = spy_texts(monkeypatch)
        _row_bounds(grid, spec)
        texts = seen[-1]
        assert texts.tolist() == [int(c // r) for r in grid.tolist()]
        by_row = dict(zip(grid.tolist(), texts.tolist()))
        assert [by_row[r] for r in exact[:5]] == [
            optimizer._evaluate(r, spec)[2] for r in exact[:5]
        ]

    def test_frontier_solve_count_is_pinned(self, monkeypatch):
        """The 9 frontier budgets take 191 threshold solves in all; a speedup
        must not come from skipping solves."""
        calls = []

        def counted(model, *args, **kwargs):
            calls.append(model)
            return find_threshold(model, *args, **kwargs)

        monkeypatch.setattr(optimizer, "find_threshold", counted)
        for spec in FRONTIER_SPECS:
            optimize_budget(spec)
        assert len(calls) == 191


class TestScalingExponents:
    def test_equal_scaling(self, desk_fit_and_opts):
        """Budget binding forces a + b = 1; symmetry makes each nearly 1/2."""
        fit, _ = desk_fit_and_opts
        assert abs(fit.a + fit.b - 1.0) < 0.02
        assert abs(fit.a - 0.5) < 0.05
        assert abs(fit.b - 0.5) < 0.05
        assert fit.r2 > 0.99

    def test_reparameterization_invariance(self, desk_specs, desk_fit_and_opts):
        """Doubling varsigma shifts N* by a constant factor, not the slopes.

        The parameters-per-concept factor is an external unit: scaling it
        (with C rescaled to keep the cell budget fixed) relabels axes
        without touching the underlying allocation problem.
        """
        base, _ = desk_fit_and_opts
        doubled = [
            BudgetSpec(C=2.0 * s.C, varsigma=2.0, tau=s.tau, d_t=s.d_t, epsilon=s.epsilon)
            for s in desk_specs
        ]
        fit = scaling_exponents(doubled)
        assert abs(fit.a - base.a) < 0.01
        assert abs(fit.b - base.b) < 0.01

    def test_ratio_stability_in_top_decades(self, desk_specs, desk_fit_and_opts):
        """N*/D* drifts less than +-25% over the top two budget decades."""
        _, opts = desk_fit_and_opts
        top = [o for s, o in zip(desk_specs, opts) if s.C >= 6e5]
        ratios = np.array([o.N_star / o.D_star for o in top])
        center = math.sqrt(ratios.max() * ratios.min())
        assert ratios.max() <= 1.25 * center
        assert ratios.min() >= 0.75 * center

    def test_needs_five_budgets(self):
        with pytest.raises(InsufficientPoints):
            scaling_exponents([BudgetSpec(C=6e5)] * 4)

    def test_allocation_reuse_matches_recompute(self, desk_specs, desk_fit_and_opts):
        fit_shared, opts = desk_fit_and_opts
        fit_fresh = scaling_exponents(desk_specs)
        assert fit_fresh == fit_shared
        with pytest.raises(ValueError):
            scaling_exponents(desk_specs, opts[:-1])


class TestSmoothingHelpers:
    def test_smooth3_medians_interior(self):
        np.testing.assert_array_equal(smooth3(np.array([0.0, 5.0, 0.0])), [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            smooth3(np.array([1.0, 2.0, 3.0, 4.0])), [1.0, 2.0, 3.0, 4.0]
        )
        np.testing.assert_array_equal(smooth3(np.array([1.0, 2.0])), [1.0, 2.0])

    def test_interior_maxima_counts_turning_points(self):
        assert interior_maxima(np.array([0.0, 1.0, 0.0])) == 1
        assert interior_maxima(np.array([0.0, 1.0, 0.0, 1.0, 0.0])) == 2
        assert interior_maxima(np.array([0.0, 1.0, 2.0, 3.0])) == 0
        assert interior_maxima(np.array([3.0, 2.0, 1.0])) == 0
        assert interior_maxima(np.array([0.0, 1.0, 1.0, 1.0, 0.0])) == 1
        assert interior_maxima(np.array([])) == 0  # no interior point

    def test_interior_maxima_hysteresis(self):
        # a 5e-7 ripple on a unit peak is sawtooth, not structure
        vals = np.array([0.0, 1.0, 1.0 - 5e-7, 1.0, 0.0])
        assert interior_maxima(vals, tol=1e-6) == 1
        assert interior_maxima(vals, tol=0.0) == 2
