"""Erasure-decoding thresholds and finite-size scaling for peeling decoders.

Density evolution for the parent bipartite graph tracks the probability x
that an edge message is still unknown:

    x_next = f(x, eps) = eps * lam(1 - rho(1 - x))

Peeling succeeds at erasure fraction eps when iterating f from x = 1
escapes to the trivial branch; it stalls when f has a fixed point above
that branch.  As g(x) = lam(1 - rho(1 - x)) does not depend on eps, the
decoding threshold, the smallest eps with such a fixed point, is the
minimum of x/g(x) over x above that branch (the direct BP-threshold
characterization; Richardson & Urbanke, Modern Coding Theory, 2008).
The minimizer x_star is where f - x is tangent at threshold; it feeds
the finite-size waterfall law

    P_b(eps) ~= nu_star * Q(sqrt(R/eps) * (eps_star - eps) / alpha)

with nu_star the stalled-bit fraction and alpha the scaling slope
assembled from the degree polynomials and their derivatives.

Binomial ensembles have concepts of degree 0 and 1, so f(0+, eps) > 0 and
a tiny "junk" fixed point exists at every eps (isolated concepts can never
be learned).  The solver excludes that trivial branch by iterating f from
x = 0 and restricting the minimum to x above twice the limit; for clean
operating points the branch sits far below the 1e-9 grid floor and the
exclusion is inert.  The exclusion is capped at a few times the seed mass
eps*lam(0): once the orbit from 0 climbs past that scale the junk branch
has merged with a genuine fixed point, which must count.  As the orbit
from 0 never decreases, it stops as soon as twice its value reaches that
cap: the cut is then the cap whatever the limit, so junk-dominated models
need a few DE steps per cut instead of hundreds.  (de_fixed_point needs
the exact limit and runs the full orbit.)  As this cut depends on eps,
find_threshold iterates eps <- min x/g(x) down from eps_hi and, where the
minimum sits on the cut, solves for the crossing instead.  The minimum
depends on eps only through the cut, so each solve computes it once per
distinct cut; on clean models every pass shares the cut X_GRID_LO.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .degree import DegreeModel, PolynomialPair

__all__ = [
    "ThresholdSolution",
    "DegenerateThreshold",
    "NonPositiveRadicand",
    "qfunc",
    "de_map",
    "de_fixed_point",
    "de_bit_erasure",
    "find_threshold",
    "matching_upper_bound",
    "scaling_alpha",
    "bit_erasure_rate",
    "prob_concept_unlearned",
]

logger = logging.getLogger(__name__)

X_GRID_LO = 1e-9
# the x grid every threshold solve minimizes x/g(x) over
X_GRID = np.geomspace(X_GRID_LO, 1.0, 2048)
X_GRID.setflags(write=False)
_ZOOM = np.linspace(0.0, 1.0, 65)  # exponents: 65 points over 4 grid steps
ZOOM_PASSES = 2
# cap on the DE orbit from x = 1 in de_fixed_point
DE_MAX_ITER = 30000
MAX_CUT_PASSES = 64
# separate wells of x/g(x) whose minima lie this close count as tied
TIE_WINDOW = 1e-9


class DegenerateThreshold(Exception):
    """A fixed point already exists at the lower end of the eps bracket."""


class NonPositiveRadicand(Exception):
    """The scaling-slope radicand is not positive at the given point."""


@dataclass(frozen=True)
class ThresholdSolution:
    """Decoding threshold and finite-size scaling constants for one model."""

    eps_star: float
    x_star: float
    nu_star: float
    alpha: float
    no_transition: bool = False
    tied_maximizer: bool = False
    # the minimizer is the junk cut itself: no tangency, so no waterfall
    on_junk_cut: bool = False


def qfunc(z: float) -> float:
    """Gaussian tail probability Q(z) = 0.5*erfc(z/sqrt(2))."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def de_map(model, x, eps):
    """One density-evolution update eps*lam(1 - rho(1 - x))."""
    x = np.asarray(x, dtype=np.float64)
    out = eps * model.lam(1.0 - model.rho(1.0 - x))
    return float(out) if np.ndim(out) == 0 else out


def _scalar_de(model, x: float, eps: float) -> float:
    return eps * model._scalar_lam(1.0 - model._scalar_rho(1.0 - x))


def _iterate(
    model,
    eps: float,
    x0: float,
    max_iter: int,
    stop_below: float = -1.0,
    stop_above: float = math.inf,
):
    """Iterate the DE map from x0 until it converges or leaves (stop_below, stop_above).

    The map is monotone in x so orbits are monotone; from above they bound
    the nearest fixed point from above at every step.  Hitting max_iter
    returns the current iterate and logs it at debug level.
    """
    x = x0
    for _ in range(max_iter):
        x_next = _scalar_de(model, x, eps)
        if x_next <= stop_below or x_next >= stop_above:
            return x_next
        if abs(x_next - x) <= 1e-15 + 1e-12 * x_next:
            return x_next
        x = x_next
    logger.debug("DE iteration cap %d hit at eps=%.12g, x=%.12g", max_iter, eps, x)
    return x


def _trivial_branch(
    model, eps: float, max_iter: int = 2000, stop_above: float = math.inf
) -> float:
    """Smallest DE fixed point, reached by iterating upward from x = 0.

    The orbit from 0 never decreases, so once it reaches stop_above every
    later iterate, the fixed point included, lies at or above it; the
    orbit stops there and returns that iterate.
    """
    return _iterate(model, eps, 0.0, max_iter, stop_above=stop_above)


def de_fixed_point(model, eps: float) -> float:
    """Stable DE fixed point reached from x = 1 (the decoder's end state).

    Converges to the trivial branch when decoding succeeds.  If the
    iteration cap is hit mid-transit (possible only within ~sqrt(tol) of
    a tangency) the current iterate is returned; orbits from above always
    bound the fixed point from above, so the result errs conservative.
    """
    x_lo = _trivial_branch(model, eps)
    exit_level = x_lo * (1.0 + 1e-9) + 1e-15
    x = _iterate(model, eps, 1.0, DE_MAX_ITER, stop_below=exit_level)
    return max(x, x_lo)


def de_bit_erasure(model, eps: float) -> float:
    """Asymptotic post-decoding bit erasure rate eps*L(1 - rho(1 - x_inf))."""
    x_inf = de_fixed_point(model, eps)
    return eps * model.L(1.0 - model.rho(1.0 - x_inf))


def _ratio(model, x):
    """x / g(x) with g(x) = lam(1 - rho(1 - x)), +inf where g vanishes.

    Callers silence the divide and overflow warnings that vanishing g raises.
    """
    return x / model.lam(1.0 - model.rho(1.0 - x))


def _junk_cut(model, eps: float) -> float:
    """Lower end of the x range find_threshold minimizes x/g(x) over at eps."""
    # the junk fixed point stays within a small factor of its seed
    # eps*lam(0) while genuinely separated; an orbit that climbs past
    # 4x the seed has merged with a real fixed point, so the cut must
    # not exclude it; once 2*x reaches the cap the cut is the cap, so
    # the orbit stops there
    junk_cap = 4.0 * eps * model._scalar_lam(0.0) + X_GRID_LO
    x_triv = _trivial_branch(model, eps, stop_above=0.5 * junk_cap)
    return max(X_GRID_LO, min(2.0 * x_triv, junk_cap))


def _min_above(model, cut: float, ratio):
    """(min, x_at_min, tied, on_cut) of x/g(x) over the cut and X_GRID above it.

    It depends on eps only through the cut, so find_threshold computes it
    once per distinct cut.  A geometric zoom around the minimizer recovers
    x_star beyond grid resolution.  Of separate wells within 1e-9 of the
    minimum the largest-x one wins: the decoder coming down from x = 1
    stalls there.
    """
    if cut >= 1.0:
        return math.inf, math.nan, False, False
    start = int(np.searchsorted(X_GRID, cut, side="right"))
    # the cut is a grid point (X_GRID_LO on every clean model); as cut < 1,
    # start = 0 wraps to X_GRID[-1] = 1 and never matches
    if X_GRID[start - 1] == cut:
        xs, rs = X_GRID[start - 1 :], ratio[start - 1 :]
    else:
        xs = np.concatenate(([cut], X_GRID[start:]))
        rs = np.concatenate((_ratio(model, xs[:1]), ratio[start:]))
    i = int(np.argmin(rs))
    near = np.flatnonzero(rs <= rs[i] + TIE_WINDOW)
    gaps = np.flatnonzero(np.diff(near) > 1)
    if gaps.size:
        k = int(near[gaps[-1] + 1])
        i = k + int(np.argmin(rs[k : near[-1] + 1]))
    x_min, r_min = xs[i], rs[i]
    for _ in range(ZOOM_PASSES):
        lo, hi = xs[max(i - 2, 0)], xs[min(i + 2, xs.size - 1)]
        if hi <= lo:
            break
        xs = lo * (hi / lo) ** _ZOOM
        rs = _ratio(model, xs)
        i = int(np.argmin(rs))
        if rs[i] < r_min:
            x_min, r_min = xs[i], rs[i]
    return float(r_min), float(x_min), bool(gaps.size), bool(x_min == cut)


def find_threshold(model, eps_lo: float = 0.0, eps_hi: float = 1.0) -> ThresholdSolution:
    """Decoding threshold: the first eps with eps >= m(eps).

    m(eps) is the minimum of x/g(x) over the junk cut and the log-spaced
    X_GRID above it.  From eps_hi the iteration eps <- m(eps) falls, as the
    cut does not decrease with eps, and stops in two passes when the
    minimizer lies above the cut.  On the cut it would converge only
    linearly, so there eps - m(eps) = 0 is solved by secant steps, then
    false position once bracketed.  Works for DegreeModel and for
    PolynomialPair (classical ensembles given by coefficient lists).

    Raises DegenerateThreshold if a fixed point already exists at eps_lo.
    If none exists even at eps_hi the returned solution carries
    eps_star = eps_hi with no_transition set.  Divide and overflow
    warnings are silenced for the solve: g vanishes at low x on data-rich
    models, where x/g(x) is +inf.
    """
    if not 0.0 <= eps_lo < eps_hi <= 1.0:
        raise ValueError(f"need 0 <= eps_lo < eps_hi <= 1, got [{eps_lo}, {eps_hi}]")
    with np.errstate(divide="ignore", over="ignore"):
        ratio = _ratio(model, X_GRID)
        minima: dict[float, tuple] = {}

        def m(eps):
            cut = _junk_cut(model, eps)
            if cut not in minima:
                minima[cut] = _min_above(model, cut, ratio)
            return minima[cut]

        # m(0) > 0, so only a positive eps_lo can be degenerate
        if eps_lo > 0.0 and m(eps_lo)[0] <= eps_lo:
            raise DegenerateThreshold(
                f"fixed point already present at eps_lo={eps_lo}; no transition to bracket"
            )
        hi = eps_hi
        r, x_star, tied, on_cut = m(hi)
        if r > hi:
            logger.debug("no fixed point up to eps_hi=%g; returning sentinel", eps_hi)
            nu, al = _solution_constants(model, eps_hi, x_star)
            return ThresholdSolution(
                eps_hi, x_star, nu, al, no_transition=True, tied_maximizer=tied
            )

        # h = eps - m(eps) >= 0 at hi; the first step is the plain iteration,
        # then secants through the last two upper ends until one lands on h < 0
        # at lo, and Illinois false position in [lo, hi] from there
        h_hi, prev, lo, h_lo, side = hi - r, None, None, 0.0, 0
        for _ in range(MAX_CUT_PASSES):
            if lo is not None:
                eps = hi - h_hi * (hi - lo) / (h_hi - h_lo)
            elif prev is not None and prev[1] > h_hi:
                eps = max(eps_lo, hi - h_hi * (prev[0] - hi) / (prev[1] - h_hi))
            else:
                eps = r
            r, x, t, c = m(eps)
            if r <= eps:
                prev, hi, h_hi, x_star, tied, on_cut = (hi, h_hi), eps, eps - r, x, t, c
                h_lo *= 0.5 if side > 0 else 1.0
                side = 1
            else:
                lo, h_lo = eps, eps - r
                h_hi *= 0.5 if side < 0 else 1.0
                side = -1
            if h_hi == 0.0 or (hi - lo if lo is not None else prev[0] - hi) <= 1e-12:
                break
        else:
            logger.info("threshold solve stopped after %d passes at eps=%.12g", MAX_CUT_PASSES, hi)
        if tied:
            logger.info("tied minimizers of x/g(x) at eps=%.9g; keeping largest x", hi)
        nu_star, alpha = _solution_constants(model, hi, x_star)
        return ThresholdSolution(
            hi, x_star, nu_star, alpha, tied_maximizer=tied, on_junk_cut=on_cut
        )


def _solution_constants(model, eps_star: float, x_star: float):
    """(nu_star, alpha) at the tangency; alpha is nan where scaling_alpha fails."""
    if not math.isfinite(x_star):
        return math.nan, math.nan
    xbar = 1.0 - x_star
    rho = model.rho(np.array([xbar, xbar * xbar]))
    nu_star = eps_star * model.L(1.0 - rho[0])
    try:
        alpha = _alpha(model, x_star, eps_star, rho)
    except (NonPositiveRadicand, ZeroDivisionError):
        alpha = math.nan
    return float(nu_star), alpha


def matching_upper_bound(model) -> float:
    """Threshold upper bound from edge matching: integral of rho over integral of lam.

    A binomial function (p*x + 1-p)**(n-1) integrates over [0, 1] to
    (1 - (1-p)**n)/(n*p), evaluated in log space.  In poisson_limit mode
    each function is exp(-d*(1 - x)) with d = n*p, whose integral is
    (1 - exp(-d))/d.
    """
    if isinstance(model, PolynomialPair):
        return model.rho_integral() / model.lam_integral()
    if model.eval_mode == "poisson_limit":
        def integral(which):
            d = model._exponent(which) * model.p
            return -math.expm1(-d) / d if d > 0.0 else 1.0

        return integral("rho") / integral("lam")
    p = model.p

    def integral(n):
        return -np.expm1(n * np.log1p(-p)) / (n * p)

    return float(integral(model.R / model.epsilon) / integral(model.T))


def scaling_alpha(model, x_star: float, eps_star: float) -> float:
    """Finite-size scaling slope at the threshold tangency point.

    Variance of the stalled fraction decomposes into a text-side and a
    concept-side summand, each normalized by the mean concept degree
    L'(1); the slope is the square root of their sum.  Raises
    NonPositiveRadicand if the bracketed sum is not positive.
    """
    xbar = 1.0 - x_star
    return _alpha(model, x_star, eps_star, model.rho(np.array([xbar, xbar * xbar])))


def _alpha(model, x_star: float, eps_star: float, rho) -> float:
    """scaling_alpha given rho at xbar and xbar**2, xbar = 1 - x_star.

    One generating-function call per function and order, on small arrays.
    """
    xbar = 1.0 - x_star
    rho_xb, rho_xb2 = rho.tolist()
    y = 1.0 - rho_xb
    lp1 = model.l_prime_at_one()

    drho_xb, drho_xb2 = model.rho(np.array([xbar, xbar * xbar]), 1).tolist()
    lam_y, lam_y2 = model.lam(np.array([y, y * y])).tolist()
    dlam_y2 = model.lam(y * y, 1)

    num_text = (
        rho_xb**2
        - rho_xb2
        + drho_xb * (1.0 - 2.0 * x_star * rho_xb)
        - xbar**2 * drho_xb2
    )
    den_text = lp1 * lam_y**2 * drho_xb**2
    num_concept = eps_star**2 * (lam_y**2 - lam_y2 - y * y * dlam_y2)
    den_concept = lp1 * lam_y**2

    radicand = num_text / den_text + num_concept / den_concept
    if not radicand > 0.0:
        raise NonPositiveRadicand(
            f"scaling radicand {radicand:.6g} at x_star={x_star:.6g}, eps_star={eps_star:.6g}"
        )
    return math.sqrt(radicand)


def bit_erasure_rate(model: DegreeModel, sol: ThresholdSolution) -> float:
    """Post-peeling bit erasure rate at the model's operating erasure fraction.

    One rule: the rate is the finite-size waterfall law
    nu_star*Q(sqrt(R/eps)*(eps_star - eps)/alpha), whose sqrt scale is the
    parent-graph size R/eps, or the density-evolution rate
    eps*L(1 - rho(1 - x_inf)) if that is larger, x_inf the end of the DE
    orbit from x = 1.  So the rate is never below eps*L(0), the erased
    concepts that no text covers.  With no transition, and on the junk
    cut, which has no waterfall, there is no law and the rate is the DE
    one.  Below threshold the orbit from x = 1 ends on the trivial branch,
    so up to threshold x_inf is taken there, from the orbit from x = 0,
    which skips the slow pass near the tangency; deep below threshold the
    law's Q factor underflows and the DE rate is the rate.  Strictly
    above threshold the law saturates at nu_star while the DE rate keeps
    growing.  Monte Carlo backs each branch; with the law alone the
    optimizer's objective overshoots the failure regime by an order of
    magnitude, and below threshold it learns concepts that no text covers.
    """
    eps = model.epsilon
    if sol.on_junk_cut or sol.no_transition:
        return de_bit_erasure(model, eps)
    z = math.sqrt(model.R / eps) * (sol.eps_star - eps) / sol.alpha
    law = sol.nu_star * qfunc(z)
    if eps > sol.eps_star:
        return max(law, de_bit_erasure(model, eps))
    x_lo = _trivial_branch(model, eps)
    return max(law, eps * model.L(1.0 - model.rho(1.0 - x_lo)))


def prob_concept_unlearned(model: DegreeModel, sol: ThresholdSolution) -> float:
    """Probability an erased concept stays unlearned: bit rate over eps, clamped to [0, 1]."""
    return min(1.0, max(0.0, bit_erasure_rate(model, sol) / model.epsilon))
