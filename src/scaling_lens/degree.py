"""Degree-distribution ensembles for random bipartite text/concept graphs.

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
that huge exponents (``T`` up to 1e12 and beyond) stay finite.  Its
Poisson limit, PoissonLimit, replaces each function by ``exp(-d*(1-x))``
with the matching mean degree ``d = n*p``.

The threshold solver reads an ensemble only through this interface,
which DegreeModel, PoissonLimit and PolynomialPair (a classical pair such
as (3,6), given by coefficients) all answer: ``gen(which, x, order)`` for
``which`` in L, lam, rho and ``order`` 0-2 at a float or an array, with
the shorthands ``L``, ``lam`` and ``rho``; ``_gen_at(x, terms)``, several
``(which, order)`` at one float; ``g(x)`` = lam(1 - rho(1 - x)) at a
float or an array; ``integral(which)`` of lam or rho over [0, 1]; and
``l_prime_at_one()``, the mean concept degree L'(1).

BinomialRows holds many (R, T) rows at once for the optimizer's row
bounds.  It shares DegreeModel's exponents and array paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._check import count_in, in_range

__all__ = [
    "BinomialRows",
    "DegreeModel",
    "PoissonLimit",
    "PolynomialPair",
    "binomial_gen",
    "log_gen",
]

# exp() underflows to subnormal/zero around -745; below this the value is 0
_LOG_UNDERFLOW = -745.0


class _Ensemble:
    """What both ensembles derive from gen: the shorthands, _gen_at and g."""

    def L(self, x, order: int = 0):
        return self.gen("L", x, order)

    def lam(self, x, order: int = 0):
        return self.gen("lam", x, order)

    def rho(self, x, order: int = 0):
        return self.gen("rho", x, order)

    def _gen_at(self, x: float, terms) -> list[float]:
        return [self.gen(which, x, order) for which, order in terms]

    def g(self, x):
        """g(x) = lam(1 - rho(1 - x)) at a float or an array."""
        return self.lam(1.0 - self.rho(1.0 - x))


class _Binomial(_Ensemble):
    """The binomial ensemble's exponents and its array paths, for R and T
    that are numbers (DegreeModel) or arrays of rows (BinomialRows)."""

    @property
    def p(self):
        """Edge probability d_t / R."""
        return self.d_t / self.R

    def _exponent(self, which: str):
        if which == "L":
            return 1.0 * self.T
        if which == "lam":
            return self.T - 1.0
        if which == "P":
            return 1.0 * self.R
        if which == "rho":
            return self.R / self.epsilon - 1.0
        raise ValueError(
            f"unknown generating function {which!r}; expected one of ['L', 'P', 'lam', 'rho']"
        )

    def gen(self, which: str, x, order: int = 0):
        return binomial_gen(self._exponent(which), self.p, x, order)


@dataclass(frozen=True)
class DegreeModel(_Binomial):
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
    """

    R: int
    T: int
    d_t: float
    epsilon: float = 0.5

    def __post_init__(self):
        count_in("R", self.R, 1)
        count_in("T", self.T, 1)
        in_range("epsilon", self.epsilon, 0, 1, "(]")
        in_range("d_t", self.d_t, 0, self.R, "()")

    def gen(self, which: str, x, order: int = 0):
        """Evaluate a generating function or one of its first two derivatives.

        A float x (np.float64 included) is evaluated without an array and
        gives the bits that the same x gives inside one.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        if isinstance(x, float):
            return self._gen_at(x, ((which, order),))[0]
        out = super().gen(which, np.asarray(x, dtype=np.float64), order)
        return float(out) if out.ndim == 0 else out

    def _gen_at(self, x: float, terms) -> list[float]:
        """gen(which, x, order) for each (which, order) of terms at one float x.

        The functions share the log term log1p(p*(x - 1)), computed once,
        and use numpy ufuncs on floats, not math, so each value has the
        bits of the array path; math differs from numpy in the last bit on
        a few percent of exp and log1p inputs.
        """
        p = self.p
        base = np.log1p(p * (x - 1.0))
        return [_binomial_at(self._exponent(w), p, base, order) for w, order in terms]

    def g(self, x):
        """g(x) = lam(1 - rho(1 - x)) at a float or an array.

        A float x (np.float64 included), as in the DE orbits, runs
        straight-line math code; math's bits can differ from the array
        path's in the last place.  Otherwise g composes binomial_gen twice.
        """
        p, n_rho, n_lam = self.p, self.R / self.epsilon - 1.0, self.T - 1.0
        if not isinstance(x, float):
            out = binomial_gen(n_lam, p, 1.0 - binomial_gen(n_rho, p, 1.0 - x))
            return float(out) if out.ndim == 0 else out
        x_rho = 1.0 - x  # p*(x_rho - 1) and p*(-x) can differ in the last bit
        e = n_rho * math.log1p(p * (x_rho - 1.0))
        y = 1.0 - (0.0 if e < _LOG_UNDERFLOW else math.exp(e))
        e = n_lam * math.log1p(p * (y - 1.0))
        return 0.0 if e < _LOG_UNDERFLOW else math.exp(e)

    def integral(self, which: str) -> float:
        """Integral of lam or rho over [0, 1]: (1 - (1 - p)**n)/(n*p) in log
        space, n the node exponent T or R/eps."""
        if which not in ("lam", "rho"):
            raise ValueError(f"integral is defined for 'lam' and 'rho', got {which!r}")
        n = float(self.T) if which == "lam" else self.R / self.epsilon
        return float(-np.expm1(n * np.log1p(-self.p)) / (n * self.p))

    def l_prime_at_one(self) -> float:
        """L'(1) = T*p, the mean concept degree, computed analytically."""
        return self.T * self.p


class PoissonLimit(DegreeModel):
    """DegreeModel's Poisson limit: each function is exp(-d*(1 - x)), d = n*p."""

    _gen_at, g = _Ensemble._gen_at, _Ensemble.g  # the compositions of gen

    def gen(self, which: str, x, order: int = 0):
        """Evaluate a generating function or one of its first two derivatives."""
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        d = self._exponent(which) * self.p
        out = d**order * np.exp(-d * (1.0 - np.asarray(x, dtype=np.float64)))
        return float(out) if out.ndim == 0 else out

    def integral(self, which: str) -> float:
        """Integral of lam or rho over [0, 1]: (1 - exp(-d))/d, d = (n - 1)*p
        with n the node exponent T or R/eps."""
        if which not in ("lam", "rho"):
            raise ValueError(f"integral is defined for 'lam' and 'rho', got {which!r}")
        d = self._exponent(which) * self.p
        return -math.expm1(-d) / d if d > 0.0 else 1.0


@dataclass(frozen=True, eq=False)
class BinomialRows(_Binomial):
    """The binomial ensemble at many (R, T) at once.

    R and T are float arrays of one shape, one entry per row, and are not
    checked.  With a column shape (rows, 1), gen and g evaluate every row
    at each point of an x array.  An entry has the bits that DegreeModel's
    array path gives for the same R, T and x.
    """

    R: np.ndarray
    T: np.ndarray
    d_t: float
    epsilon: float

    def L_complement(self, y):
        """1 - L(y) as -expm1(log L(y)), accurate where L(y) is near 1."""
        return -np.expm1(log_gen(self._exponent("L"), self.p, y))


@dataclass(frozen=True)
class PolynomialPair(_Ensemble):
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
            for c in coeffs:
                in_range(f"{name} coefficient", c, 0, math.inf, "[)")
            if abs(sum(coeffs) - 1.0) > 1e-9:
                raise ValueError(f"{name} coefficients must sum to 1, got {sum(coeffs)}")
        object.__setattr__(self, "lam_coeffs", lam)
        object.__setattr__(self, "rho_coeffs", rho)

    def gen(self, which: str, x, order: int = 0):
        """Evaluate lam, rho or L, or one of their first two derivatives."""
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        if which == "L":
            # node perspective: integral of lam, normalized to L(1) = 1
            total = self.integral("lam")
            coeffs = (0.0,) + tuple(c / (i + 1) / total for i, c in enumerate(self.lam_coeffs))
        elif which in ("lam", "rho"):
            coeffs = getattr(self, which + "_coeffs")
        else:
            raise ValueError(f"unknown generating function {which!r}; expected L, lam or rho")
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

    def integral(self, which: str) -> float:
        """Integral of lam or rho over [0, 1]: the sum of c_i/(i + 1)."""
        if which not in ("lam", "rho"):
            raise ValueError(f"integral is defined for 'lam' and 'rho', got {which!r}")
        return sum(c / (i + 1) for i, c in enumerate(getattr(self, which + "_coeffs")))

    def l_prime_at_one(self) -> float:
        return 1.0 / self.integral("lam")


def log_gen(n, p, x):
    """log of (p*x + 1 - p)**n, broadcasting over n, p and x."""
    return n * np.log1p(p * (x - 1.0))


def _coeff(n, p, order: int):
    """The order-th derivative's factor: the product of (n - k)*p over k < order."""
    coeff = 1.0
    for k in range(order):
        coeff = coeff * ((n - k) * p)
    return coeff


def _binomial_at(n: float, p: float, base, order: int) -> float:
    """binomial_gen for one float point, given base = log1p(p*(x - 1))."""
    coeff = _coeff(n, p, order)
    e = (n - order) * base
    if e < _LOG_UNDERFLOW or coeff == 0.0:
        return 0.0
    return float(coeff * np.exp(e)) if order else float(np.exp(e))


def binomial_gen(n, p, x, order: int = 0):
    """order-th derivative of (p*x + 1 - p)**n in log space, broadcasting over n, p and x.

    +0.0 where the log-space exponent e is below -745, where exp underflows
    to zero, or where the derivative's coefficient vanishes; elsewhere it is
    coeff*exp(e), subnormal values included.  When no entry is zeroed,
    as on every clean threshold solve, a plain exp computes it, about
    twice as fast as a masked one.  Otherwise, as on most of the
    optimizer's row-bound rows, exp and the product skip the zeroed
    entries: exp takes a slow path for results in the subnormal range,
    which makes a plain exp there about 25 times slower, and the value
    would be discarded anyway.  NaN is never zeroed and propagates.
    """
    coeff = _coeff(n, p, order)
    e = log_gen(n - order, p, x)
    drop = e < _LOG_UNDERFLOW  # not ~(e >= ...): NaN must reach exp and propagate
    if order:
        drop |= coeff == 0.0
    if not np.count_nonzero(drop):  # C call; ndarray.any costs 3x as much on small inputs
        # out= keeps a 0-d result an array, as on the masked path
        out = np.exp(e, out=np.empty_like(e))
        if order:
            np.multiply(coeff, out, out=out)
        return out
    keep = ~drop
    out = np.zeros(np.shape(keep))
    np.exp(e, out=out, where=keep)
    if order:
        np.multiply(coeff, out, out=out, where=keep)
    return out
