"""Training error and the excess-entropy lower bound along the frontier.

A text contributes to the training error when at least two of its
concepts stay unlearned (one unknown concept per text is recoverable).
With per-concept unlearned probability P_b and text degree distributed
Binomial(R, d_t/R), summing the degree distribution against
1 - (1-P_b)^k - k P_b (1-P_b)^{k-1} gives the closed form

    P_e,train = 1 - (1-x)^R - d_t P_b (1-x)^{R-1},   x = d_t P_b / R.

Its small-P_b expansion is (d_t P_b)^2 / 2.  The quadratic shortcut
4 d_t^2 (P_b_raw/epsilon)^2 is also exposed, verbatim, as the labeled
approximation; its constant sits a factor 8 above the exact expansion
(see APPROX_CONSTANT_DISCREPANCY), so the exact form is canonical and
the bound 0.5 * P_e,train^2 composes with the exact value only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._check import count_in, in_range
from .degree import DegreeModel
from .optimizer import BudgetSpec, optimize_budget
from .threshold import bit_erasure_rate

__all__ = [
    "APPROX_CONSTANT_DISCREPANCY",
    "FrontierRow",
    "LossPoint",
    "excess_entropy_lb",
    "frontier_loss_curve",
    "loss_point",
    "training_error_approx",
    "training_error_exact",
]

# The exact formula expands to (d_t P_b)^2 / 2 for small P_b; the quadratic
# approximation states 4 d_t^2 P_b^2 with the same P_b = P_b_raw / epsilon.
# Downstream consumers surface this in run metadata.
APPROX_CONSTANT_DISCREPANCY = {
    "flag": "training-error-approx-constant-discrepancy",
    "exact_small_pb_limit": "0.5 * (d_t * P_b)^2",
    "approx_formula": "4 * d_t^2 * (P_b_raw / epsilon)^2",
    "approx_over_exact_ratio": 8.0,
}


@dataclass(frozen=True)
class LossPoint:
    P_b: float
    P_e_train_exact: float
    P_e_train_approx: float
    excess_entropy_lb: float


@dataclass(frozen=True)
class FrontierRow:
    C: float
    R_star: int
    N_star: float
    P_b: float
    P_e_train_exact: float
    P_e_train_approx: float
    excess_entropy_lb: float


def training_error_exact(R: int, d_t: float, P_b: float) -> float:
    """Probability a text keeps >= 2 unlearned concepts, closed form."""
    count_in("R", R, 1)
    in_range("P_b", P_b, 0, 1)
    in_range("d_t", d_t, 0, math.inf, "[)")
    x = in_range("d_t * P_b / R", d_t * P_b / R, 0, 1)
    if x == 1.0:
        # degenerate corner: every text sees every concept unlearned
        return 0.0 if R == 1 else 1.0
    log_base = math.log1p(-x)
    value = (
        1.0
        - math.exp(R * log_base)
        - d_t * P_b * math.exp((R - 1) * log_base)
    )
    return min(1.0, max(0.0, value))


def training_error_approx(d_t: float, P_b_raw: float, epsilon: float) -> float:
    """The quadratic approximation, verbatim: 4 d_t^2 (P_b_raw/epsilon)^2."""
    in_range("d_t", d_t, 0, math.inf, "[)")
    in_range("P_b_raw", P_b_raw, 0, 1)
    in_range("epsilon", epsilon, 0, 1, "(]")
    return 4.0 * d_t**2 * (P_b_raw / epsilon) ** 2


def excess_entropy_lb(P_e_train: float) -> float:
    """Pinsker bound: excess entropy >= P_e_train^2 / 2."""
    in_range("P_e_train", P_e_train, 0, 1)
    return 0.5 * P_e_train * P_e_train


def loss_point(P_b_raw: float, R: int, d_t: float, epsilon: float) -> LossPoint:
    """Bundle the per-concept rate with both error forms and the bound."""
    approx = training_error_approx(d_t, P_b_raw, epsilon)  # checks what the clamp reads
    p_b = min(1.0, max(0.0, P_b_raw / epsilon))
    exact = training_error_exact(R, d_t, p_b)
    return LossPoint(
        P_b=p_b,
        P_e_train_exact=exact,
        P_e_train_approx=approx,
        excess_entropy_lb=excess_entropy_lb(exact),
    )


def frontier_loss_curve(specs: list[BudgetSpec]) -> list[FrontierRow]:
    """Excess-entropy bound at the compute-optimal point of each budget."""
    rows = []
    for spec in specs:
        opt = optimize_budget(spec)
        model = DegreeModel(
            R=opt.R_star, T=opt.T_star, d_t=spec.d_t, epsilon=spec.epsilon
        )
        p_raw = bit_erasure_rate(model, opt.solution)
        point = loss_point(p_raw, opt.R_star, spec.d_t, spec.epsilon)
        rows.append(
            FrontierRow(
                C=spec.C,
                R_star=opt.R_star,
                N_star=opt.N_star,
                P_b=point.P_b,
                P_e_train_exact=point.P_e_train_exact,
                P_e_train_approx=point.P_e_train_approx,
                excess_entropy_lb=point.excess_entropy_lb,
            )
        )
    return rows
