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
be learned).  It is the root of x/g(x) = eps on the first rising stretch
of x/g(x), which ends at the curve's first turning point x_M, and every
fixed point above x_M is a genuine one.  So the threshold is the minimum
of x/g(x) over x >= x_M, a search that does not depend on eps.
find_threshold takes x/g(x) on X_GRID once, x_M as the first grid point
where it stops rising (the left end where it starts out falling, as on
data-rich models, where g underflows), and the minimum from there on.
Without a turning point, or with that minimum above 1, the fixed point
moves continuously with eps: a crossover, with no transition.

nu_star and alpha take rho and rho' at xbar and xbar**2 (xbar = 1 - x_star),
then lam at y and y**2, lam'(y**2) and L(y), with y = 1 - rho(xbar).  The
functions at each of these four points come from one log term
log1p(p*(x - 1)) per point, on floats, with the bits of the array path.

The solve takes x/g(x) to have a single well from x_M on, so its argmin
is the threshold.  The one diagnostic is a SolverWarning: a DE orbit at
its iteration cap.  A solve with no transition warns nothing:
no_transition says so.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._check import in_range
from .degree import DegreeModel

__all__ = [
    "ThresholdSolution",
    "NonPositiveRadicand",
    "SolverWarning",
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

# the x grid every threshold solve minimizes x/g(x) over
X_GRID = np.geomspace(1e-9, 1.0, 2048)
X_GRID.setflags(write=False)
_ZOOM = np.linspace(0.0, 1.0, 65)  # exponents: 65 points over 4 grid steps
ZOOM_PASSES = 2
# cap on the DE orbit from x = 1 in de_fixed_point
DE_MAX_ITER = 30000


class NonPositiveRadicand(Exception):
    """The scaling-slope radicand is not positive at the given point."""


class SolverWarning(UserWarning):
    """A DE orbit stopped at its iteration cap."""


@dataclass(frozen=True)
class ThresholdSolution:
    """Decoding threshold and finite-size scaling constants for one model."""

    eps_star: float
    x_star: float
    nu_star: float
    alpha: float
    no_transition: bool = False


def qfunc(z: float) -> float:
    """Gaussian tail probability Q(z) = 0.5*erfc(z/sqrt(2))."""
    in_range("z", z, -math.inf, math.inf)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def de_map(model, x, eps):
    """One density-evolution update eps*lam(1 - rho(1 - x))."""
    x = np.asarray(x, dtype=np.float64)
    out = eps * model.lam(1.0 - model.rho(1.0 - x))
    return float(out) if np.ndim(out) == 0 else out


def _iterate(model, eps: float, x0: float, max_iter: int, stop_below: float = -1.0):
    """Iterate the DE map from x0 until it converges or falls to stop_below.

    The map is monotone in x so orbits are monotone; from above they bound
    the nearest fixed point from above at every step.  Hitting max_iter
    returns the current iterate and warns with a SolverWarning.
    """
    x = x0
    for _ in range(max_iter):
        x_next = eps * model.g(x)
        if x_next <= stop_below:
            return x_next
        if abs(x_next - x) <= 1e-15 + 1e-12 * x_next:
            return x_next
        x = x_next
    warnings.warn(f"DE iteration cap {max_iter} hit at eps={eps:.12g}, x={x:.12g}", SolverWarning)
    return x


def _trivial_branch(model, eps: float, max_iter: int = 2000) -> float:
    """Smallest DE fixed point, reached by iterating upward from x = 0."""
    return _iterate(model, eps, 0.0, max_iter)


def de_fixed_point(model, eps: float) -> float:
    """Stable DE fixed point reached from x = 1 (the decoder's end state).

    Converges to the trivial branch when decoding succeeds.  If the
    iteration cap is hit mid-transit (possible only within ~sqrt(tol) of
    a tangency) the current iterate is returned; orbits from above always
    bound the fixed point from above, so the result errs conservative.
    """
    in_range("eps", eps, 0, 1)
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
    return x / model.g(x)


def _min_above(model, start: int, ratio):
    """(min, x_at_min) of x/g(x) over X_GRID[start:], given ratio on X_GRID.

    A geometric zoom around the minimizer recovers x_star beyond grid
    resolution.
    """
    xs, rs = X_GRID[start:], ratio[start:]
    i = int(np.argmin(rs))
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
    return float(r_min), float(x_min)


def find_threshold(model) -> ThresholdSolution:
    """Decoding threshold: the minimum of x/g(x) above its first turning point.

    x/g(x) is taken once on the log-spaced X_GRID.  x_M is the first grid
    point where it stops rising, and eps_star is its minimum over X_GRID
    from x_M on (see the module docstring).  Works for any ensemble that
    answers the interface listed in the degree module's docstring.

    With no turning point, or a minimum above 1, no fixed point appears
    as eps grows to 1: the solution is the sentinel eps_star = 1 with
    no_transition set and x_star, nu_star and alpha nan.  Divide and
    overflow warnings are silenced for the solve: g vanishes at low x on
    data-rich models, where x/g(x) is +inf.
    """
    with np.errstate(divide="ignore", over="ignore"):
        ratio = _ratio(model, X_GRID)
        turns = np.flatnonzero(ratio[1:] <= ratio[:-1])
        eps_star = math.inf
        if turns.size:
            eps_star, x_star = _min_above(model, int(turns[0]), ratio)
        if eps_star > 1.0:
            return ThresholdSolution(1.0, math.nan, math.nan, math.nan, no_transition=True)
        nu_star, alpha = _solution_constants(model, eps_star, x_star)
        return ThresholdSolution(eps_star, x_star, nu_star, alpha)


def _solution_constants(model, eps_star: float, x_star: float):
    """(nu_star, alpha) at the tangency; alpha is nan where scaling_alpha fails."""
    terms = _tangent_terms(model, x_star)
    nu_star = eps_star * terms[-1]
    try:
        alpha = _alpha(model, x_star, eps_star, terms)
    except (NonPositiveRadicand, ZeroDivisionError):
        alpha = math.nan
    return float(nu_star), alpha


def _tangent_terms(model, x_star: float):
    """The generating-function values at the tangency that nu_star and alpha use.

    rho and rho' at xbar and xbar**2 (xbar = 1 - x_star), then, with
    y = 1 - rho(xbar), lam at y and y**2, lam'(y**2) and L(y).  Each point's
    functions share one log term.
    """
    xbar = 1.0 - x_star
    rho_xb, drho_xb = model._gen_at(xbar, (("rho", 0), ("rho", 1)))
    rho_xb2, drho_xb2 = model._gen_at(xbar * xbar, (("rho", 0), ("rho", 1)))
    y = 1.0 - rho_xb
    lam_y, l_y = model._gen_at(y, (("lam", 0), ("L", 0)))
    lam_y2, dlam_y2 = model._gen_at(y * y, (("lam", 0), ("lam", 1)))
    return rho_xb, rho_xb2, drho_xb, drho_xb2, lam_y, lam_y2, dlam_y2, l_y


def matching_upper_bound(model) -> float:
    """Threshold upper bound from edge matching: integral of rho over integral of lam."""
    return model.integral("rho") / model.integral("lam")


def scaling_alpha(model, x_star: float, eps_star: float) -> float:
    """Finite-size scaling slope at the threshold tangency point.

    Variance of the stalled fraction decomposes into a text-side and a
    concept-side summand, each normalized by the mean concept degree
    L'(1); the slope is the square root of their sum.  Raises
    NonPositiveRadicand if the bracketed sum is not positive.
    """
    in_range("x_star", x_star, 0, 1)
    in_range("eps_star", eps_star, 0, 1)
    return _alpha(model, x_star, eps_star, _tangent_terms(model, x_star))


def _alpha(model, x_star: float, eps_star: float, terms) -> float:
    """scaling_alpha given _tangent_terms(model, x_star)."""
    xbar = 1.0 - x_star
    rho_xb, rho_xb2, drho_xb, drho_xb2, lam_y, lam_y2, dlam_y2, _ = terms
    y = 1.0 - rho_xb
    lp1 = model.l_prime_at_one()

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
    concepts that no text covers.  With no transition there is no law
    and the rate is the DE one.  Below threshold the orbit from x = 1 ends
    on the trivial branch, so up to threshold x_inf is taken there, from
    the orbit from x = 0, which skips the slow pass near the tangency;
    deep below threshold the law's Q factor underflows and the DE rate is
    the rate.  Strictly above threshold the law saturates at nu_star while
    the DE rate keeps growing.  Monte Carlo backs each branch; with the law
    alone the optimizer's objective overshoots the failure regime by an
    order of magnitude, and below threshold it learns concepts that no text
    covers.
    """
    eps = model.epsilon
    if sol.no_transition:
        return de_bit_erasure(model, eps)
    z = math.sqrt(model.R / eps) * (sol.eps_star - eps) / sol.alpha
    law = sol.nu_star * qfunc(z)
    if eps > sol.eps_star:
        return max(law, de_bit_erasure(model, eps))
    x_lo = _trivial_branch(model, eps)
    return max(law, eps * model.L(1.0 - model.rho(1.0 - x_lo)))


def prob_concept_unlearned(model: DegreeModel, sol: ThresholdSolution) -> float:
    """Probability an erased concept stays unlearned: bit rate over eps, clamped to [0, 1]."""
    rate = in_range("bit erasure rate", bit_erasure_rate(model, sol), 0, 1)
    return min(1.0, max(0.0, rate / model.epsilon))
