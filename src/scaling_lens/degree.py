"""Degree-distribution model for random bipartite text/concept graphs.

Texts connect to concepts independently with probability ``p = d_t / R``,
so node degrees are binomial on both sides.  All analysis routines consume
the four standard generating functions of that ensemble, each of the form
``(p*x + 1 - p)**n`` for a side-specific exponent ``n``:

===========  =============  ==========================================
name         exponent n     meaning
===========  =============  ==========================================
``L``        ``T``          concept degrees, node perspective
``lam``      ``T - 1``      concept degrees, edge perspective
``P``        ``R``          text degrees, node perspective
``rho``      ``R/eps - 1``  text degrees in the eps-parent graph,
                            edge perspective (real exponent)
===========  =============  ==========================================

Everything is evaluated in log space as ``exp(n * log1p(p*(x-1)))`` so
that huge exponents (``T`` up to 1e12 and beyond) stay finite.  The
``poisson_limit`` mode replaces each function by ``exp(-d*(1-x))`` with
the matching mean degree ``d = n*p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DegreeModel",
    "PolynomialPair",
    "binomial_gen",
    "eval_gen",
    "l_prime_at_one",
    "log_gen",
]

# exp() underflows to subnormal/zero around -745; below this the value is 0
_LOG_UNDERFLOW = -745.0

_EXPONENTS = {"L": "T", "lam": "T-1", "P": "R", "rho": "R/eps-1"}


@dataclass(frozen=True)
class DegreeModel:
    """Binomial bipartite ensemble with R concepts, T texts, mean text degree d_t.

    Parameters
    ----------
    R : int
        Number of concepts (variable side).
    T : int
        Number of texts (check side).
    d_t : float
        Mean number of concepts per text; the edge probability is
        ``p = d_t / R`` and must stay inside (0, 1).
    epsilon : float
        Erasure fraction used to size the parent graph (``R/epsilon``
        concepts, of which an ``epsilon`` fraction is unknown).
    eval_mode : str
        ``"exact_log"`` (default) or ``"poisson_limit"``.
    """

    R: int
    T: int
    d_t: float
    epsilon: float = 0.5
    eval_mode: str = "exact_log"

    def __post_init__(self):
        if self.R < 1 or self.T < 1:
            raise ValueError(f"R and T must be >= 1, got R={self.R}, T={self.T}")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not (0.0 < self.d_t < self.R):
            raise ValueError(
                f"d_t must satisfy 0 < d_t < R so that p = d_t/R is in (0, 1); "
                f"got d_t={self.d_t}, R={self.R}"
            )
        if self.eval_mode not in ("exact_log", "poisson_limit"):
            raise ValueError(f"unknown eval_mode {self.eval_mode!r}")

    @property
    def p(self) -> float:
        """Edge probability d_t / R."""
        return self.d_t / self.R

    @property
    def d_r(self) -> float:
        """Mean concept degree d_t * T / R."""
        return self.d_t * self.T / self.R

    def _exponent(self, which: str) -> float:
        if which == "L":
            return float(self.T)
        if which == "lam":
            return float(self.T - 1)
        if which == "P":
            return float(self.R)
        if which == "rho":
            return self.R / self.epsilon - 1.0
        raise ValueError(f"unknown generating function {which!r}; expected one of {sorted(_EXPONENTS)}")

    def gen(self, which: str, x, order: int = 0):
        """Evaluate a generating function or one of its first two derivatives."""
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        n = self._exponent(which)
        x = np.asarray(x, dtype=np.float64)
        if self.eval_mode == "poisson_limit":
            d = n * self.p
            out = d**order * np.exp(-d * (1.0 - x))
        else:
            out = binomial_gen(n, self.p, x, order)
        return float(out) if out.ndim == 0 else out

    # Shorthands used throughout the threshold solver.
    def L(self, x, order: int = 0):
        return self.gen("L", x, order)

    def lam(self, x, order: int = 0):
        return self.gen("lam", x, order)

    def P(self, x, order: int = 0):
        return self.gen("P", x, order)

    def rho(self, x, order: int = 0):
        return self.gen("rho", x, order)

    def l_prime_at_one(self) -> float:
        """L'(1) = T*p, the mean concept degree, computed analytically."""
        return self.T * self.p

    # Scalar fast paths for fixed-point iteration loops.  Same math as
    # gen(..., order=0) but without ndarray dispatch overhead.
    def _scalar_lam(self, x: float) -> float:
        n = float(self.T - 1)
        if self.eval_mode == "poisson_limit":
            return math.exp(-n * self.p * (1.0 - x))
        e = n * math.log1p(self.p * (x - 1.0))
        return 0.0 if e < _LOG_UNDERFLOW else math.exp(e)

    def _scalar_rho(self, x: float) -> float:
        n = self.R / self.epsilon - 1.0
        if self.eval_mode == "poisson_limit":
            return math.exp(-n * self.p * (1.0 - x))
        e = n * math.log1p(self.p * (x - 1.0))
        return 0.0 if e < _LOG_UNDERFLOW else math.exp(e)


@dataclass(frozen=True)
class PolynomialPair:
    """Classical polynomial degree-distribution pair, for solver validation.

    ``lam_coeffs[i]`` and ``rho_coeffs[i]`` are the coefficients of x**i in
    the edge-perspective polynomials.  The node-perspective L is recovered
    by normalized integration, e.g. lam(x) = x**2 gives L(x) = x**3.
    """

    lam_coeffs: tuple = field(default=())
    rho_coeffs: tuple = field(default=())

    def __post_init__(self):
        lam = tuple(float(c) for c in self.lam_coeffs)
        rho = tuple(float(c) for c in self.rho_coeffs)
        if not lam or not rho:
            raise ValueError("both coefficient lists must be non-empty")
        for name, coeffs in (("lam", lam), ("rho", rho)):
            if any(c < 0 for c in coeffs):
                raise ValueError(f"{name} coefficients must be nonnegative")
            if abs(sum(coeffs) - 1.0) > 1e-9:
                raise ValueError(f"{name} coefficients must sum to 1, got {sum(coeffs)}")
        object.__setattr__(self, "lam_coeffs", lam)
        object.__setattr__(self, "rho_coeffs", rho)

    @staticmethod
    def _poly(coeffs, x, order):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for i, c in enumerate(coeffs):
            if c == 0.0:
                continue
            k = 1.0
            for j in range(order):
                k *= i - j
            if k != 0.0:
                out = out + c * k * x ** max(i - order, 0)
        return float(out) if out.ndim == 0 else out

    def lam(self, x, order: int = 0):
        return self._poly(self.lam_coeffs, x, order)

    def rho(self, x, order: int = 0):
        return self._poly(self.rho_coeffs, x, order)

    def L(self, x, order: int = 0):
        # node perspective: integral of lam, normalized to L(1) = 1
        node = tuple(c / (i + 1) for i, c in enumerate(self.lam_coeffs))
        total = sum(node)
        shifted = (0.0,) + tuple(c / total for c in node)
        return self._poly(shifted, x, order)

    def lam_integral(self) -> float:
        return sum(c / (i + 1) for i, c in enumerate(self.lam_coeffs))

    def rho_integral(self) -> float:
        return sum(c / (i + 1) for i, c in enumerate(self.rho_coeffs))

    def l_prime_at_one(self) -> float:
        return 1.0 / self.lam_integral()

    _scalar_lam = lam
    _scalar_rho = rho


def log_gen(n, p, x):
    """log of (p*x + 1 - p)**n, broadcasting over n, p and x."""
    return n * np.log1p(p * (x - 1.0))


def binomial_gen(n, p, x, order: int = 0):
    """order-th derivative of (p*x + 1 - p)**n in log space, broadcasting over n, p and x.

    Zero where the log-space exponent e is below -745, where exp underflows
    to zero, or where the derivative's coefficient vanishes; elsewhere it is
    coeff*exp(e), subnormal values included.  The zeroed exponents enter exp
    as 0, not as e: exp takes a slow path for results in the subnormal
    range, and the value would be discarded anyway.
    """
    coeff = 1.0
    for k in range(order):
        coeff = coeff * ((n - k) * p)
    e = log_gen(n - order, p, x)
    zero = e < _LOG_UNDERFLOW
    if order:
        zero = zero | (coeff == 0.0)
    return np.where(zero, 0.0, coeff * np.exp(np.where(zero, 0.0, e)))


def eval_gen(model: DegreeModel, which: str, x, order: int = 0):
    """Evaluate one of the model's generating functions (see module docstring)."""
    return model.gen(which, x, order)


def l_prime_at_one(model) -> float:
    """Mean concept degree L'(1), exact (no generating-function roundoff)."""
    return model.l_prime_at_one()
