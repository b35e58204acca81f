"""Hierarchical skill graphs: emergence thresholds and plateau curves.

Concepts at level l map uniformly onto S^(l) skills; two skills link
when enough concept pairs co-occur in texts and the prerequisite skills
below them are already usable.  The link probability is the paper's
Chernoff-style lower bound, so every accuracy this module emits is a
lower bound (label curves accordingly).  A level's usable-skill
fraction is the giant-component fraction of an Erdos-Renyi graph with
mean degree p_l * S^(l), which switches on only past mean degree 1;
chaining levels through the prerequisite factor gamma_prev^(2 sigma_l)
produces the sharp emergence steps and the plateaus between them.
A level with prerequisites (sigma > 0) right above a dead one (gamma = 0)
gets factor 0 and is dead as well: the link bound returns 0 there before
its Chernoff term, so the zero tail above the first dead level costs no
Chernoff evaluation, and the accuracy sum skips its terms, which are
exactly 0.

Branch conventions for the link bound: at eta == mu the in-mean branch
(1 - g) applies, yielding 0 (the bound is vacuous at the mean); the
above-mean branch carries the sub-Gaussian prefactor
1/sqrt(8 eta (1 - eta/n)).  Thresholds eta_l are treated as reals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._check import count_in, in_range
from .optimizer import BudgetSpec, OptimumPoint, optimize_budget

__all__ = [
    "DegenerateBound",
    "EmergenceCurve",
    "LevelRow",
    "Segment",
    "SkillHierarchy",
    "TaskSpec",
    "TooFewPoints",
    "accuracy_vs_compute",
    "concept_pair_prob",
    "detect_plateaus",
    "gcc_fraction",
    "lambert_w0",
    "level_recursion",
    "level_recursion_detail",
    "skill_link_prob",
    "task_accuracy",
    "task_mixture_binomial",
]

INV_E = math.exp(-1.0)

# Bernoulli KL switches to the Poisson-limit form below this rate to
# dodge cancellation in (1-a)ln((1-a)/(1-p)) when n is astronomically
# large while mu stays order tens.
POISSON_RATE_CUTOFF = 1e-6


class DegenerateBound(UserWarning):
    """eta >= binom(R,2): the tail event is impossible, bound is 0."""


class TooFewPoints(ValueError):
    """Plateau detection needs at least 8 curve points."""


@dataclass(frozen=True)
class SkillHierarchy:
    """Per-level sizes S^(l), thresholds eta_l, prerequisite counts sigma_l."""

    S: tuple[int, ...]
    eta: tuple[float, ...]
    sigma: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.S) == len(self.eta) == len(self.sigma)):
            raise ValueError("S, eta, sigma must have one entry per level")
        in_range("level count", len(self.S), 1, math.inf, "[)")
        for S, eta, sigma in zip(self.S, self.eta, self.sigma):
            count_in("level size S", S, 2)
            in_range("threshold eta", eta, 0, math.inf, "()")
            in_range("prerequisite count sigma", sigma, 0, math.inf, "[)")
        if self.sigma[0] != 0:
            raise ValueError("level 1 cannot have prerequisites (sigma_1 = 0)")

    @property
    def L(self) -> int:
        return len(self.S)

    @classmethod
    def exponential_thresholds(
        cls, L: int, S_each: int, eta_scale: float = 7.0
    ) -> "SkillHierarchy":
        """Constant level size, eta_l = exp(eta_scale*l/L), sigma_l = log2(l)."""
        levels = range(1, L + 1)
        return cls(
            S=tuple(S_each for _ in levels),
            eta=tuple(math.exp(eta_scale * l / L) for l in levels),
            sigma=tuple(math.log2(l) for l in levels),
        )


@dataclass(frozen=True)
class TaskSpec:
    """Mixture q(l, m) over (skill level, skills required per subtask)."""

    weights: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.weights:
            raise ValueError("task mixture cannot be empty")
        for (l, m), q in self.weights.items():
            count_in("task level", l, 1)
            count_in("task arity", m, 1)
            in_range(f"mixture weight at ({l},{m})", q, 0, math.inf, "[)")
        total = math.fsum(self.weights.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")

    @classmethod
    def homogeneous(cls, level: int, m: int) -> "TaskSpec":
        return cls(weights={(level, m): 1.0})

    @classmethod
    def product(
        cls,
        level_marginal: dict[int, float],
        arity_marginal: dict[int, float],
    ) -> "TaskSpec":
        """q(l, m) = q(l) q(m)."""
        weights = {
            (l, m): ql * qm
            for l, ql in level_marginal.items()
            for m, qm in arity_marginal.items()
        }
        return cls(weights=weights)

    def level_marginal(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for (l, _), q in self.weights.items():
            out[l] = out.get(l, 0.0) + q
        return out

    def with_arity(self, arity_marginal: dict[int, float]) -> "TaskSpec":
        return TaskSpec.product(self.level_marginal(), arity_marginal)

    def max_level(self) -> int:
        return max(l for (l, _) in self.weights)


@dataclass(frozen=True)
class LevelRow:
    level: int
    p_rr: float
    p_link: float
    mean_degree: float
    gamma: float


@dataclass(frozen=True)
class EmergenceCurve:
    C: np.ndarray
    N_star: np.ndarray
    R_star: np.ndarray
    T_star: np.ndarray
    accuracy: np.ndarray
    gamma: np.ndarray  # shape (n_budgets, L)


@dataclass(frozen=True)
class Segment:
    start: int
    end: int
    kind: str  # "plateau" | "rise"
    width_decades: float


def concept_pair_prob(R: int, T: int, d_t: float, S_l: int) -> float:
    """Two fixed concepts co-occur in some text and map to one fixed skill."""
    shared = _cooccur_prob(R, T, d_t)
    count_in("S_l", S_l, 1)
    return shared / (S_l * S_l)


def _cooccur_prob(R: int, T: int, d_t: float) -> float:
    """Two fixed concepts co-occur in some text: concept_pair_prob before the skill map."""
    count_in("R", R, 1)
    count_in("T", T, 0)
    in_range("d_t", d_t, 0, R)
    ratio = (d_t / R) ** 2
    if ratio >= 1.0:
        return 1.0 if T >= 1 else 0.0
    return -math.expm1(T * math.log1p(-ratio))


def _kl_upper_exponent(n: float, eta: float, mu: float, p: float) -> float:
    """n * D_KL(eta/n || p), Poisson-limit form when both rates are tiny."""
    a = eta / n
    if a < POISSON_RATE_CUTOFF and p < POISSON_RATE_CUTOFF:
        return eta * math.log(eta / mu) - eta + mu
    return n * (
        a * math.log(a / p) + (1.0 - a) * math.log((1.0 - a) / (1.0 - p))
    )


def skill_link_prob(
    R: int, p_rr: float, eta_l: float, sigma_l: float, gamma_prev: float
) -> float:
    """Lower bound on the probability that two skills at a level link up.

    Chernoff tail of the co-occurrence count X ~ Binomial(binom(R,2), p_rr)
    against the threshold eta_l, times the prerequisite reachability
    factor gamma_prev^(2 sigma_l).
    """
    count_in("R", R, 1)
    in_range("p_rr", p_rr, 0, 1, "()")
    in_range("eta_l", eta_l, 0, math.inf, "()")
    in_range("sigma_l", sigma_l, 0, math.inf, "[)")
    in_range("gamma_prev", gamma_prev, 0, 1)
    return _link_prob(R * (R - 1) / 2.0, p_rr, eta_l, sigma_l, gamma_prev, stacklevel=3)


def _link_prob(n, p_rr, eta, sigma, gamma_prev, stacklevel=2) -> float:
    """skill_link_prob over n = binom(R,2) pairs, unchecked; warns stacklevel frames up.

    A zero prerequisite factor returns 0 after the eta >= n test, so a
    dead level warns as a live one does.
    """
    if eta >= n:
        warnings.warn(
            f"threshold eta = {eta:.3g} >= binom(R,2) = {n:.3g}: "
            "the co-occurrence tail event is impossible, bound is 0",
            DegenerateBound,
            stacklevel=stacklevel,
        )
        return 0.0
    prereq = gamma_prev ** (2.0 * sigma)
    if prereq == 0.0:  # the value below would be a Chernoff term times 0
        return 0.0
    mu = n * p_rr
    g = math.exp(-_kl_upper_exponent(n, eta, mu, p_rr))
    if eta <= mu:
        # The Chernoff term 1 - g is vacuous just past the mean crossing
        # (eta -> mu makes the KL exponent collapse), which would zero a
        # level for a sliver of every budget sweep and cut the recursion
        # above it.  The tail is never that small: P(X >= eta) >=
        # P(X >= ceil(mu)) >= 1/4 for a binomial with mu >= 1 (mean-
        # median-quartile inequality), so the in-mean branch is floored
        # there.  Far from the crossing 1 - g dominates and the floor is
        # inert.
        chernoff = 1.0 - g
        if mu >= 1.0:
            chernoff = max(chernoff, 0.25)
        value = chernoff * prereq
    else:
        value = g / math.sqrt(8.0 * eta * (1.0 - eta / n)) * prereq
    return min(1.0, max(0.0, value))


def lambert_w0(z: float) -> float:
    """Principal branch of w e^w = z for z >= -1/e.

    Series start near the branch point, asymptotic start for large z,
    Halley polish to |w e^w - z| < 1e-12 * max(1, |z|).
    """
    return _w0(max(in_range("z", z, -INV_E - 1e-12, math.inf, "[)"), -INV_E))


def _w0_branch(ez1: float) -> float:
    """Series start of W near the branch point, from ez1 = e*z + 1 >= 0."""
    p = math.sqrt(2.0 * ez1)
    return -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0 - 43.0 * p**4 / 540.0


def _w0(z: float) -> float:
    """lambert_w0 on z in [-1/e, inf), unchecked."""
    tol = 1e-13 * max(1.0, abs(z))
    if z == -INV_E:
        return -1.0
    if abs(z) < 1e-300:
        return z

    ez1 = math.e * z + 1.0
    if ez1 < 0.0:
        ez1 = 0.0
    if ez1 < 1e-3 or (z < -0.25 and ez1 < 0.35):
        w = _w0_branch(ez1)
    elif z > 3.0:
        l1 = math.log(z)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    elif z > 0.0:
        w = math.log1p(z) * (1.0 - 0.3 * math.log1p(z) / (1.0 + z))
        w = max(w, 1e-300)
    else:
        # z in (-0.25, 0): truncated Maclaurin series of W
        w = z * (1.0 - z * (1.0 - 1.5 * z))

    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= tol:
            break
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if w <= -1.0:
            w = -1.0 + 1e-15
    return w


def gcc_fraction(mean_degree: float) -> float:
    """Giant-component fraction of an ER graph at the given mean degree.

    Zero at or below mean degree 1; otherwise the positive root of
    gamma = 1 - exp(-c gamma), seeded by the Lambert W closed form and
    Newton-polished to residual < 1e-12.
    """
    return _gcc(float(in_range("mean degree", mean_degree, 0, math.inf, "[]")))


def _gcc(c: float) -> float:
    """gcc_fraction at a mean degree c in [0, inf], unchecked."""
    if c <= 1.0:
        return 0.0
    if c == math.inf:  # log(c) + 1 - c below is NaN there
        return 1.0
    # argument of W is -c e^{-c}; e*z + 1 = 1 - exp(log c + 1 - c) computed
    # stably since log c - (c-1) ~ -(c-1)^2/2 near c = 1
    u = math.log(c) + 1.0 - c
    ez1 = -math.expm1(u)
    if ez1 < 1e-3:
        w = _w0_branch(ez1)
    else:
        w = _w0(-c * math.exp(-c))
    gamma = 1.0 + w / c
    gamma = min(1.0, max(0.0, gamma))

    for _ in range(60):
        expf = math.exp(-c * gamma)
        resid = 1.0 - expf - gamma
        if abs(resid) <= 1e-12:
            break
        deriv = c * expf - 1.0
        if deriv == 0.0:
            break
        step = resid / deriv
        new = gamma - step
        if not 0.0 < new <= 1.0:
            new = 0.5 * (gamma + (0.0 if step > 0 else 1.0))
        gamma = new
    return min(1.0, max(0.0, gamma))


def _levels(h: SkillHierarchy, R: int, T: int, d_t: float):
    """(p_rr, p_link, mean_degree, gamma) per level, bottom to top, in floats.

    Inputs are checked once, and each level runs the unchecked cores: R,
    T, d_t by _cooccur_prob, S, eta, sigma by SkillHierarchy, and p_rr at
    the largest S, its smallest value (its largest is <= 1/4 as S >= 2).
    """
    shared = _cooccur_prob(R, T, d_t)
    in_range("p_rr", shared / max(h.S) ** 2, 0, 1, "()")
    n_pairs = R * (R - 1) / 2.0
    gamma = 1.0
    for S, eta, sigma in zip(h.S, h.eta, h.sigma):
        p_rr = shared / (S * S)
        p_link = _link_prob(n_pairs, p_rr, eta, sigma, gamma)
        c = p_link * S
        gamma = _gcc(c)
        yield p_rr, p_link, c, gamma


def level_recursion_detail(
    h: SkillHierarchy, R: int, T: int, d_t: float
) -> tuple[np.ndarray, list[LevelRow]]:
    """Per-level link probabilities and GCC fractions, bottom to top."""
    rows = [LevelRow(i + 1, *level) for i, level in enumerate(_levels(h, R, T, d_t))]
    return np.array([row.gamma for row in rows]), rows


def level_recursion(h: SkillHierarchy, R: int, T: int, d_t: float) -> np.ndarray:
    return np.array([level[-1] for level in _levels(h, R, T, d_t)])


def task_accuracy(gamma: np.ndarray, task: TaskSpec) -> float:
    """Accuracy lower bound sum q(l,m) gamma_l^m.

    Levels with gamma_l = 0 add exactly +0.0 (weights are finite), so the
    sum skips them.  Every gamma_l must lie in [0, 1].
    """
    g = np.asarray(gamma, dtype=np.float64)
    _check_levels(task, g.size)
    for end in (g.min(), g.max()):  # either is NaN if any entry is
        in_range("gamma", end, 0, 1)
    g = g.tolist()
    acc = math.fsum(
        q * gl**m for (l, m), q in task.weights.items() if (gl := g[l - 1]) != 0.0
    )
    return min(1.0, max(0.0, acc))


def _check_levels(task: TaskSpec, levels: int) -> None:
    if task.max_level() > levels:
        raise ValueError(f"task references level {task.max_level()} but only {levels} given")


def task_mixture_binomial(
    L: int,
    pi: float | tuple[float, ...],
    weights: tuple[float, ...] | None = None,
) -> TaskSpec:
    """Level mixture q(l) from Binomial(L, pi), l = 0 dropped, renormalized.

    A tuple of pis with matching weights builds the weighted mixture
    sum_i w_i Binomial(L, pi_i) before truncation.  The result carries
    arity m = 1 per level; compose arities with TaskSpec.with_arity.
    """
    count_in("L", L, 1)
    if isinstance(pi, (int, float)):
        pis = (float(pi),)
        wts = (1.0,)
    else:
        pis = tuple(float(x) for x in pi)
        if weights is None:
            raise ValueError("mixture pis need matching weights")
        wts = tuple(float(w) for w in weights)
        if len(wts) != len(pis):
            raise ValueError("weights and pis must have equal length")
        for w in wts:
            in_range("mixture weight", w, 0, math.inf, "[)")
        if abs(math.fsum(wts) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
    for x in pis:
        in_range("pi", x, 0, 1, "()")

    mass = np.zeros(L + 1)
    for w, x in zip(wts, pis):
        logp = math.log(x)
        logq = math.log1p(-x)
        for l in range(L + 1):
            mass[l] += w * math.exp(
                math.lgamma(L + 1)
                - math.lgamma(l + 1)
                - math.lgamma(L - l + 1)
                + l * logp
                + (L - l) * logq
            )
    mass = mass[1:]  # levels start at 1
    mass /= in_range("mixture mass on levels >= 1", mass.sum(), 0, math.inf, "()")
    marginal = {l + 1: float(q) for l, q in enumerate(mass) if q > 0.0}
    return TaskSpec.product(marginal, {1: 1.0})


def accuracy_vs_compute(
    specs: list[BudgetSpec],
    h: SkillHierarchy,
    task: TaskSpec,
    allocations: list[OptimumPoint] | None = None,
) -> EmergenceCurve:
    """Accuracy lower bound at the compute-optimal point of each budget.

    Precomputed allocations (from optimize_budget on the same specs) can
    be passed to amortize the optimizer across several tasks.  A task
    that references a level above the hierarchy fails before any solve.
    An R* below max(S) warns once: the skill mapping is undersampled.
    """
    _check_levels(task, h.L)
    if allocations is None:
        allocations = [optimize_budget(s) for s in specs]
    if len(allocations) != len(specs):
        raise ValueError("allocations must match specs one-to-one")
    s_max = max(h.S)
    low = [o.R_star for o in allocations if o.R_star < s_max]
    if low:
        note = f"R* = {low[0]} below max level size S = {s_max}: "
        warnings.warn(note + "uniform concept-to-skill mapping is undersampled", stacklevel=2)
    n = len(specs)
    gamma = np.zeros((n, h.L))
    acc = np.zeros(n)
    for i, (spec, opt) in enumerate(zip(specs, allocations)):
        g = level_recursion(h, opt.R_star, opt.T_star, spec.d_t)
        gamma[i] = g
        acc[i] = task_accuracy(g, task)
    return EmergenceCurve(
        C=np.array([s.C for s in specs]),
        N_star=np.array([o.N_star for o in allocations]),
        R_star=np.array([o.R_star for o in allocations], dtype=np.int64),
        T_star=np.array([o.T_star for o in allocations], dtype=np.int64),
        accuracy=acc,
        gamma=gamma,
    )


def detect_plateaus(
    curve: EmergenceCurve, slope_tol: float, min_width_decades: float
) -> list[Segment]:
    """Split the accuracy curve into plateau and rise segments.

    Interval slopes are d(accuracy)/d(log10 C); plateaus need |slope|
    below slope_tol over at least min_width_decades, narrower flat runs
    count as part of a rise; adjacent segments of one kind merge.  C must
    be strictly increasing: a ValueError says so otherwise.
    """
    in_range("slope_tol", slope_tol, 0, math.inf, "[)")
    in_range("min_width_decades", min_width_decades, 0, math.inf, "[)")
    n = curve.C.shape[0]
    if n < 8:
        raise TooFewPoints(f"plateau detection needs >= 8 points, got {n}")
    log_c = np.log10(curve.C)
    steps = np.diff(log_c)
    if not np.all(steps > 0.0):
        raise ValueError("plateau detection needs strictly increasing budgets C")
    slopes = np.diff(curve.accuracy) / steps
    kinds = ["plateau" if abs(s) < slope_tol else "rise" for s in slopes]

    def merge(kind_list: list[tuple[int, int, str]]) -> list[tuple[int, int, str]]:
        out = [kind_list[0]]
        for start, end, kind in kind_list[1:]:
            s0, e0, k0 = out[-1]
            if kind == k0:
                out[-1] = (s0, end, k0)
            else:
                out.append((start, end, kind))
        return out

    segments = merge([(i, i + 1, k) for i, k in enumerate(kinds)])
    widened = [
        (s, e, k if k == "rise" or log_c[e] - log_c[s] >= min_width_decades
         else "rise")
        for s, e, k in segments
    ]
    segments = merge(widened)
    return [
        Segment(start=s, end=e, kind=k, width_decades=float(log_c[e] - log_c[s]))
        for s, e, k in segments
    ]
