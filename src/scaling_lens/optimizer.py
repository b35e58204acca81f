"""Compute-optimal allocation of concepts vs texts under a FLOP budget.

A budget C buys N*D = C/6 parameter-token products; with N = varsigma*R
and D = tau*T that leaves R*T <= C' = C/(6*varsigma*tau) graph cells.
Since extra texts never hurt peeling, the constraint binds: T = C'/R,
and the problem is one-dimensional in R.

The objective is the expected number of concepts learned,
R * (1 - P_b/epsilon), with P_b the post-peeling erasure rate that
threshold.bit_erasure_rate gives.

The optimizer's scan rules most rows out without a threshold solve, by
a closed-form upper bound on each row's objective from the point where
the DE orbit must stall; _row_bounds states it and why it holds.  Rows
are solved in descending bound order until the bound falls below the
best value found, which returns the full scan's argmax; near the
optimum the stall bound is tight, so one or two rows are solved per
frontier budget.  Most rows need no stall bound either: _bounded_argmax
rules them out by the cheaper coverage bound R*(1 - L(0)).
isoflop_curve returns every point and so evaluates the whole grid.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._check import count_in, in_range
from .degree import BinomialRows, DegreeModel
from .threshold import (
    X_GRID,
    ThresholdSolution,
    bit_erasure_rate,
    find_threshold,
    prob_concept_unlearned,
)

__all__ = [
    "BudgetSpec",
    "EmptyGrid",
    "InsufficientPoints",
    "IsoflopCurve",
    "OptimumPoint",
    "ScalingFit",
    "expected_learned",
    "interior_maxima",
    "isoflop_curve",
    "optimize_budget",
    "scaling_exponents",
    "smooth3",
]

COARSE_POINTS_PER_DECADE = 64

# _row_bounds samples x/g(x) at this many points of the solver's x grid.  Any
# sample would do; over the frontier and plateaus budgets this one gives the
# same optima as np.geomspace(1e-9, 1, 64) with 3% fewer threshold solves.
STALL_SAMPLE_POINTS = 64
STALL_SAMPLE = X_GRID[:: X_GRID.size // STALL_SAMPLE_POINTS]

# _bounded_argmax first takes stall bounds on this many rows
BOUND_BLOCK = 128

# budgets with at most this many feasible R scan every integer R
EXHAUSTIVE_LIMIT = 4096

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class EmptyGrid(ValueError):
    """No feasible R values under the budget."""


class InsufficientPoints(ValueError):
    """Too few budgets for a slope fit."""


@dataclass(frozen=True)
class BudgetSpec:
    """FLOP budget plus the linear maps from graph size to (N, D)."""

    C: float
    varsigma: float = 1.0
    tau: float = 1.0
    d_t: float = 6.0
    epsilon: float = 0.5

    def __post_init__(self):
        for name in ("C", "varsigma", "tau", "d_t"):
            in_range(name, getattr(self, name), 0, math.inf, "()")
        in_range("epsilon", self.epsilon, 0, 1, "()")
        in_range("C' = C/(6*varsigma*tau)", self.C_prime, 1, math.inf, "()")

    @property
    def C_prime(self) -> float:
        return self.C / (6.0 * self.varsigma * self.tau)


@dataclass(frozen=True)
class OptimumPoint:
    R_star: int
    T_star: int
    N_star: float
    D_star: float
    objective: float
    eps_star_at_opt: float
    solution: ThresholdSolution


@dataclass(frozen=True)
class IsoflopCurve:
    spec: BudgetSpec
    R: np.ndarray
    T: np.ndarray
    objective: np.ndarray
    eps_star: np.ndarray
    no_transition: np.ndarray  # crossover rows, whose eps_star is the sentinel 1


@dataclass(frozen=True)
class ScalingFit:
    a: float
    b: float
    r2: float


def _evaluate(
    R: int, spec: BudgetSpec, T: int | None = None
) -> tuple[float, ThresholdSolution, int]:
    """Objective, threshold solution, and T at one grid point (T = floor(C'/R) unless given)."""
    if T is None:
        T = int(spec.C_prime // R)
    model = DegreeModel(R=R, T=T, d_t=spec.d_t, epsilon=spec.epsilon)
    sol = find_threshold(model)
    return R * (1.0 - prob_concept_unlearned(model, sol)), sol, T


def expected_learned(R: int, T: int, spec: BudgetSpec) -> float:
    """Expected concepts learned for an explicit (R, T) pair."""
    count_in("R", R, 1)
    count_in("T", T, 1)
    return _evaluate(int(R), spec, T=int(T))[0]


def _r_bounds(spec: BudgetSpec) -> tuple[int, int]:
    """Feasible R range [d_t + 1, C']; raises EmptyGrid when it is empty."""
    r_lo = int(math.floor(spec.d_t)) + 1
    r_hi = int(spec.C_prime)
    if r_hi < r_lo:
        raise EmptyGrid(f"no feasible R: need R in [{r_lo}, C'={spec.C_prime:.3g}]")
    return r_lo, r_hi


def _geometric_ints(r_lo: int, r_hi: int, points_per_decade: int) -> np.ndarray:
    decades = math.log10(r_hi / r_lo) if r_hi > r_lo else 0.0
    n = max(2, int(round(points_per_decade * decades)) + 1)
    grid = np.unique(np.rint(np.geomspace(r_lo, r_hi, n)).astype(np.int64))
    return grid[(grid >= r_lo) & (grid <= r_hi)]


def isoflop_curve(
    spec: BudgetSpec, points_per_decade: int = COARSE_POINTS_PER_DECADE
) -> IsoflopCurve:
    """Objective and threshold along a geometric R grid, T = floor(C'/R)."""
    count_in("points_per_decade", points_per_decade, 2)
    grid = _geometric_ints(*_r_bounds(spec), points_per_decade)
    values = np.empty(grid.size)
    stars = np.empty(grid.size)
    crossover = np.empty(grid.size, dtype=bool)
    texts = np.empty(grid.size, dtype=np.int64)
    for i, r in enumerate(grid):
        values[i], sol, texts[i] = _evaluate(int(r), spec)
        stars[i], crossover[i] = sol.eps_star, sol.no_transition
    return IsoflopCurve(spec, grid, texts, values, stars, crossover)


def smooth3(values: np.ndarray) -> np.ndarray:
    """3-point median filter with endpoints passed through."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 3:
        return v.copy()
    out = v.copy()
    stacked = np.stack([v[:-2], v[1:-1], v[2:]])
    out[1:-1] = np.median(stacked, axis=0)
    return out


def interior_maxima(values: np.ndarray, tol: float = 0.0) -> int:
    """Count interior local maxima, collapsing flat plateaus to one.

    A maximum registers only when the curve first rises more than tol
    above a preceding low and then falls more than tol below the high
    (turning-point detection with hysteresis).  Evaluating the
    objective at integer T = floor(C'/R) leaves a sawtooth of relative
    size ~1/C' in the deep tail; a tol of about 1e-6 of the peak
    removes it without masking any macroscopic structure.  tol = 0
    counts every strict reversal.
    """
    in_range("tol", tol, 0, math.inf, "[)")
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return 0
    count = 0
    direction = 0
    hi = lo = v[0]
    for x in v[1:]:
        if direction == 1:
            if x > hi:
                hi = x
            elif x < hi - tol:
                count += 1
                direction = -1
                lo = x
        elif direction == -1:
            if x < lo:
                lo = x
            elif x > lo + tol:
                direction = 1
                hi = x
        else:
            hi = max(hi, x)
            lo = min(lo, x)
            if x < hi - tol:
                direction = -1
                lo = x
            elif x > lo + tol:
                direction = 1
                hi = x
    return count


def _rows(grid: np.ndarray, spec: BudgetSpec) -> BinomialRows:
    """The ensemble at each grid R, T = floor(C'/R) as _evaluate takes it, as a column."""
    r = grid.astype(np.float64)[:, None]
    return BinomialRows(
        R=r, T=np.floor_divide(spec.C_prime, r), d_t=spec.d_t, epsilon=spec.epsilon
    )


def _bound_at(rows: BinomialRows, y) -> np.ndarray:
    """R*(1 - L(y)) per row, widened by the relative slack 1e-9 for roundoff."""
    return (rows.R * rows.L_complement(y) * (1.0 + 1e-9)).ravel()


def _row_bounds(grid: np.ndarray, spec: BudgetSpec) -> np.ndarray:
    """Upper bound on the objective at each grid R, T = floor(C'/R), with no solve.

    bit_erasure_rate is at least the DE rate eps*L(1 - rho(1 - x_inf)),
    x_inf the end of the DE orbit from x = 1.  That orbit never falls
    below an x with f(x) >= x, i.e. with x/g(x) <= eps (Richardson &
    Urbanke, Modern Coding Theory, 2008), so with x_s the largest such x
    of STALL_SAMPLE (0 if none) the objective is at most
    R*(1 - L(1 - rho(1 - x_s))).  Up to threshold the rate takes x_inf on
    the trivial branch, reached from x = 0, so there the bound needs x_s
    at or below that branch.  eps_star is the minimum of x/g(x) from
    find_threshold's first turning point x_M on, so up to threshold no x
    at or above x_M has x/g(x) below eps.  Below x_M x/g(x) rises, so it
    stays below eps up to a sampled x_s and the trivial branch, its first
    root of x/g(x) = eps, lies above x_s.  The relative slacks 1e-6 on eps
    and 1e-9 on the product absorb roundoff.
    """
    rows = _rows(grid, spec)
    xs, eps = STALL_SAMPLE, spec.epsilon
    g = rows.g(xs)
    # x_s per row, the largest sampled x with x/g(x) <= eps
    x_s = np.where(xs <= eps * (1.0 - 1e-6) * g, xs, 0.0).max(axis=1, keepdims=True)
    return _bound_at(rows, 1.0 - rows.rho(1.0 - x_s))


def _bounded_argmax(
    grid: np.ndarray, spec: BudgetSpec, objective: Callable[[int], float]
) -> int:
    """Index of the best objective on an ascending R grid, np.argmax's index.

    Rows are visited in descending _row_bounds order (ties by ascending
    index) and the scan stops at the first bound below the best value so
    far: no row from there on can exceed it.  Updating on a larger value,
    or an equal one at a smaller index, keeps the smallest R among ties.
    objective maps R to its value (optimize_budget passes its memoized
    objective, so the rows solved here are solved once).

    Only rows that this scan can visit get a stall bound.  A row's
    coverage bound B0 = R*(1 - L(0)), R less the concepts no text covers,
    needs no sample of g.  It is the stall bound at x_s = 0, bit for bit,
    and at least the stall bound at any x_s, as y = 1 - rho(1 - x_s) >= 0
    and L increases.  Stall bounds are taken on the first BOUND_BLOCK rows
    in descending B0 order, or on every row if the largest of them does
    not exceed the next row's B0.  No row left can then reach it, so its
    row (the smallest index among ties) is the one the scan visits first,
    and its value v1 is solved.  The rows with B0 >= v1 get a stall bound too.
    Every other row has a bound below v1, so below the best value from the
    first visit on, and the scan stops before it.  So the visits, the
    solves and the index are those of the scan over every row's bound.
    """
    cover = _bound_at(_rows(grid, spec), 0.0)  # coverage bounds R*(1 - L(0))
    by_cover = np.argsort(-cover, kind="stable")
    n = min(BOUND_BLOCK, grid.size)
    bound = _row_bounds(grid[by_cover[:n]], spec)
    if n < grid.size and not bound.max() > cover[by_cover[n]]:
        bound = np.concatenate((bound, _row_bounds(grid[by_cover[n:]], spec)))
        n = grid.size
    first = int(by_cover[:n][bound == bound.max()].min())
    best = objective(int(grid[first]))
    m = int(np.count_nonzero(cover >= best))  # the rows by_cover[:m]
    if m > n:
        bound = np.concatenate((bound, _row_bounds(grid[by_cover[n:m]], spec)))
        n = m
    # the bounded rows by ascending index, so that the stable sort below
    # breaks ties as the scan over every row does; first comes first
    ascending = np.argsort(by_cover[:n])
    rows, bound = by_cover[:n][ascending], bound[ascending]
    j = first
    for i in np.argsort(-bound, kind="stable")[1:].tolist():
        if bound[i] < best:
            break
        k = int(rows[i])
        v = objective(int(grid[k]))
        if v > best or (v == best and k < j):
            j, best = k, v
    return j


def optimize_budget(spec: BudgetSpec) -> OptimumPoint:
    """Maximize expected concepts learned subject to R*T <= C'.

    Bounded scan of a geometric R grid at 64 points per decade, then
    golden-section refinement on log R around the best grid point;
    evaluation always happens at integer (R, T).  The scan solves rows in
    descending order of _row_bounds and stops once the bound falls below
    the best value so far; see _row_bounds for why the bound holds and
    _bounded_argmax for the rows that get one.  The scan picks the same
    point as a full scan, the smallest R among ties.
    Budgets with at most EXHAUSTIVE_LIMIT feasible R scan every integer R
    and skip the refinement.  The scan and the refinement share one
    memoized objective, so the refinement reuses the scan's solves.
    """
    r_lo, r_hi = _r_bounds(spec)
    cache: dict[int, tuple[float, ThresholdSolution, int]] = {}

    def solve(r: int) -> tuple[float, ThresholdSolution, int]:
        if r not in cache:
            cache[r] = _evaluate(r, spec)
        return cache[r]

    exhaustive = r_hi - r_lo + 1 <= EXHAUSTIVE_LIMIT
    if exhaustive:
        grid = np.arange(r_lo, r_hi + 1)
    else:
        grid = _geometric_ints(r_lo, r_hi, COARSE_POINTS_PER_DECADE)
    j = _bounded_argmax(grid, spec, lambda r: solve(r)[0])
    best_r = int(grid[j])
    if not exhaustive:
        lo = float(grid[max(0, j - 1)])
        hi = float(grid[min(grid.size - 1, j + 1)])
        a, b = math.log(lo), math.log(hi)

        def at(u: float) -> float:
            return solve(max(r_lo, min(r_hi, int(round(math.exp(u))))))[0]

        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc, fd = at(c), at(d)
        for _ in range(80):
            if b - a < math.log1p(1.0 / max(lo, 1.0)):
                break
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - GOLDEN * (b - a)
                fc = at(c)
            else:
                a, c, fc = c, d, fd
                d = a + GOLDEN * (b - a)
                fd = at(d)
        center = int(round(math.exp(0.5 * (a + b))))
        candidates = {
            max(r_lo, min(r_hi, r))
            for r in (center - 2, center - 1, center, center + 1, center + 2, best_r)
        }
        best_r = max(candidates, key=lambda r: solve(r)[0])

    value, sol, t_star = solve(best_r)
    return OptimumPoint(
        R_star=best_r,
        T_star=t_star,
        N_star=spec.varsigma * best_r,
        D_star=spec.tau * t_star,
        objective=value,
        eps_star_at_opt=sol.eps_star,
        solution=sol,
    )


def scaling_exponents(
    specs: list[BudgetSpec],
    allocations: list[OptimumPoint] | None = None,
) -> ScalingFit:
    """Log-log slopes of the compute-optimal N* and D* against C."""
    if len(specs) < 5:
        raise InsufficientPoints(
            f"need at least 5 budgets for a slope fit, got {len(specs)}"
        )
    if allocations is None:
        opts = [optimize_budget(s) for s in specs]
    elif len(allocations) != len(specs):
        raise ValueError("allocations must match specs one-to-one")
    else:
        opts = allocations
    log_c = np.log10([s.C for s in specs])
    log_n = np.log10([o.N_star for o in opts])
    log_d = np.log10([o.D_star for o in opts])

    def fit(y: np.ndarray) -> tuple[float, float]:
        slope, intercept = np.polyfit(log_c, y, 1)
        resid = y - (slope * log_c + intercept)
        total = y - y.mean()
        ss_tot = float(np.dot(total, total))
        r2 = 1.0 - float(np.dot(resid, resid)) / ss_tot if ss_tot > 0 else 1.0
        return float(slope), r2

    a, r2_a = fit(log_n)
    b, r2_b = fit(log_d)
    return ScalingFit(a=a, b=b, r2=min(r2_a, r2_b))


# bench/workloads.py still calls the rate by its former name
effective_bit_erasure = bit_erasure_rate
