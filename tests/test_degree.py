"""Tests for the binomial degree-distribution model and its generating functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scaling_lens.degree import (
    DegreeModel,
    PolynomialPair,
    binomial_gen,
    log_gen,
)


class TestModelValidation:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            DegreeModel(R=0, T=10, d_t=1.0)
        with pytest.raises(ValueError):
            DegreeModel(R=10, T=0, d_t=1.0)

    def test_rejects_edge_probability_outside_open_interval(self):
        """p = d_t/R must land strictly inside (0, 1)."""
        with pytest.raises(ValueError):
            DegreeModel(R=10, T=10, d_t=10.0)
        with pytest.raises(ValueError):
            DegreeModel(R=10, T=10, d_t=0.0)
        with pytest.raises(ValueError):
            DegreeModel(R=10, T=10, d_t=-1.0)

    def test_rejects_unknown_eval_mode(self):
        with pytest.raises(ValueError):
            DegreeModel(R=10, T=10, d_t=2.0, eval_mode="taylor")

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            DegreeModel(R=10, T=10, d_t=2.0, epsilon=0.0)
        with pytest.raises(ValueError):
            DegreeModel(R=10, T=10, d_t=2.0, epsilon=1.5)


class TestGeneratingFunctions:
    def test_normalized_at_one(self):
        """Every generating function evaluates to 1 at x = 1."""
        models = [
            DegreeModel(R=100, T=200, d_t=6.0),
            DegreeModel(R=10, T=3, d_t=1.5, epsilon=0.25),
            DegreeModel(R=10**6, T=10**7, d_t=4.0, eval_mode="poisson_limit"),
        ]
        for m in models:
            for which in ("L", "lam", "P", "rho"):
                np.testing.assert_allclose(m.gen(which, 1.0), 1.0, rtol=0, atol=1e-12)

    def test_edge_concept_gen_small_model(self):
        # T=2, p=0.5: lam(x) = (0.5x + 0.5)^1, so lam(0) = 0.5 exactly
        m = DegreeModel(R=12, T=2, d_t=6.0)
        assert m.gen("lam", 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_huge_exponent_evaluates_in_log_space(self):
        """T = 1e9 with p = 6e-9 gives lam(0) near exp(-6) without overflow."""
        m = DegreeModel(R=10**9, T=10**9, d_t=6.0)
        got = m.gen("lam", 0.0)
        np.testing.assert_allclose(got, math.exp(-6.0), rtol=1e-6)
        # exact-log and poisson-limit agree closely at this scale
        mp = DegreeModel(R=10**9, T=10**9, d_t=6.0, eval_mode="poisson_limit")
        np.testing.assert_allclose(got, mp.gen("lam", 0.0), rtol=3e-8)

    def test_deep_underflow_floors_to_zero(self):
        # exponent sum ~ -1000 < -745, must give exactly 0.0 rather than raise
        m = DegreeModel(R=10**6, T=10**6, d_t=1000.0)
        assert m.gen("lam", 0.0) == 0.0

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_underflow_band_is_exact(self, order):
        """Exponents e from -800 to -700: exactly +0.0 below -745, and
        coeff*exp(e) from -745 up, subnormal values included, bit for bit
        and sign for sign against the np.where formula, for scalar, 1-D and
        2-D (broadcast) inputs; also a negative coefficient, a vanishing one
        and NaN input."""
        p, x = 0.5, np.array([0.0, 1e-6])
        target = np.linspace(-800.0, -700.0, 4001)  # step 0.025, hits -745
        n = order + target / math.log1p(-p)

        def check(n, x):
            coeff = 1.0
            for k in range(order):
                coeff = coeff * ((n - k) * p)
            e = log_gen(n - order, p, x)
            zero = e < -745.0
            if order:
                zero = zero | (coeff == 0.0)
            want = np.where(zero, 0.0, coeff * np.exp(np.where(zero, 0.0, e)))
            got = binomial_gen(n, p, x, order)
            assert np.shape(got) == np.shape(want)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
            return e, got

        cases = [
            (n, x[0]),
            (n.reshape(-1, 1), x.reshape(1, -1)),
            (n[:4000].reshape(80, 50), x[0]),
        ]
        for nn, xx in cases:
            e, got = check(nn, xx)
            assert (got[e < -745.0] == 0.0).all() and (got[e >= -745.0] > 0.0).all()
            assert ((got > 0.0) & (got < np.finfo(float).tiny)).any()
        for nn in n[::40].tolist():
            e, got = check(nn, 0.0)
            assert np.ndim(got) == 0, (nn, float(e))
        if order == 2:
            # n = 0.5 gives coeff < 0, and e = -1.5*log1p(p*(x - 1)) crosses
            # the band at x > 1; the zeroed entries stay +0.0, while
            # coeff*exp(e) is negative or, near -745, underflows to -0.0
            e, got = check(0.5, 1.0 + np.expm1(-target / 1.5) / p)
            assert (e < -745.0).any() and not np.signbit(got[e < -745.0]).any()
            assert np.signbit(got[e >= -745.0]).all() and (got < 0.0).any()
        if order:
            _, got = check(0.0, x)  # coeff = 0
            assert (got == 0.0).all()
        _, got = check(n[::500], np.nan)
        assert np.isnan(got).all()

    def test_vector_input_round_trip(self):
        m = DegreeModel(R=50, T=80, d_t=3.0)
        xs = np.linspace(0.0, 1.0, 7)
        vec = m.gen("lam", xs)
        scalars = np.array([m.gen("lam", float(x)) for x in xs])
        np.testing.assert_allclose(vec, scalars, rtol=0, atol=0)

    def test_unknown_function_name_rejected(self):
        m = DegreeModel(R=50, T=80, d_t=3.0)
        with pytest.raises(ValueError):
            m.gen("Q", 0.5)
        with pytest.raises(ValueError):
            m.gen("lam", 0.5, order=3)


class TestMeanDegree:
    def test_exact_values(self):
        """L'(1) = T*p, computed without generating-function roundoff."""
        assert DegreeModel(R=100, T=100, d_t=6.0).l_prime_at_one() == 6.0
        assert DegreeModel(R=10, T=10, d_t=1.0).l_prime_at_one() == 1.0

    def test_matches_first_derivative_at_one(self):
        m = DegreeModel(R=10**4, T=10**4, d_t=6.0)
        np.testing.assert_allclose(
            m.l_prime_at_one(), m.gen("L", 1.0, order=1), rtol=1e-9
        )


class TestEdgeNodeConsistency:
    def test_edge_gen_is_normalized_node_derivative(self):
        """lam(x) = L'(x) / L'(1) for the binomial ensemble."""
        xs = np.linspace(0.0, 1.0, 21)
        for T in (2, 17, 400, 10**4):
            m = DegreeModel(R=2 * T, T=T, d_t=5.0) if T > 2 else DegreeModel(R=10, T=T, d_t=2.0)
            ratio = m.gen("L", xs, order=1) / m.l_prime_at_one()
            np.testing.assert_allclose(m.gen("lam", xs), ratio, rtol=1e-9)

    def test_mode_agreement_large_sparse(self):
        """exact_log and poisson_limit agree to 1e-6 once exponents are >= 1e6
        and mean degrees stay below 20."""
        xs = np.array([0.0, 0.25, 0.5, 0.75])
        cases = [
            (10**6, 10**6, 6.0),
            (10**7, 2 * 10**7, 4.0),
            (10**6, 10**7, 1.5),
        ]
        for R, T, d_t in cases:
            me = DegreeModel(R=R, T=T, d_t=d_t)
            mp = DegreeModel(R=R, T=T, d_t=d_t, eval_mode="poisson_limit")
            for which in ("L", "lam", "P", "rho"):
                np.testing.assert_allclose(
                    me.gen(which, xs), mp.gen(which, xs), atol=1e-6, rtol=0
                )

    def test_monotone_nondecreasing_in_x(self):
        xs = np.linspace(0.0, 1.0, 101)
        m = DegreeModel(R=300, T=500, d_t=7.0, epsilon=0.4)
        for which in ("L", "lam", "P", "rho"):
            vals = m.gen(which, xs)
            assert np.all(np.diff(vals) >= -1e-15)


class TestProperties:
    @given(
        R=st.integers(min_value=3, max_value=10**5),
        T=st.integers(min_value=2, max_value=10**5),
        d_frac=st.floats(min_value=1e-3, max_value=0.99),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_values_stay_in_unit_interval(self, R, T, d_frac, x):
        """Generating functions of a probability distribution map [0,1] into [0,1]."""
        m = DegreeModel(R=R, T=T, d_t=d_frac * R)
        for which in ("L", "lam", "P", "rho"):
            v = m.gen(which, x)
            assert -1e-12 <= v <= 1.0 + 1e-12

    @given(
        T=st.integers(min_value=2, max_value=10**4),
        d_frac=st.floats(min_value=1e-3, max_value=0.9),
        x1=st.floats(min_value=0.0, max_value=1.0),
        x2=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotonicity_pairwise(self, T, d_frac, x1, x2):
        m = DegreeModel(R=2 * T, T=T, d_t=d_frac * 2 * T)
        lo, hi = min(x1, x2), max(x1, x2)
        assert m.gen("lam", lo) <= m.gen("lam", hi) + 1e-12


class TestPolynomialPair:
    """Classical polynomial pairs used to validate the threshold solver."""

    def test_node_gen_integrates_edge_gen(self):
        # lam(x) = x^2 integrates to L(x) = x^3
        pp = PolynomialPair(lam_coeffs=(0.0, 0.0, 1.0), rho_coeffs=(0.0, 1.0))
        xs = np.linspace(0.0, 1.0, 9)
        np.testing.assert_allclose(pp.L(xs), xs**3, rtol=0, atol=1e-14)

    def test_mixed_coefficients(self):
        # lam = 0.4x + 0.6x^2 -> node weights (0.2, 0.2), L = (0.5x^2 + 0.5x^3)
        pp = PolynomialPair(lam_coeffs=(0.0, 0.4, 0.6), rho_coeffs=(0.0, 1.0))
        np.testing.assert_allclose(pp.L(0.5), 0.5 * 0.25 + 0.5 * 0.125, rtol=1e-14)
        np.testing.assert_allclose(pp.l_prime_at_one(), 1.0 / (0.4 / 2 + 0.6 / 3), rtol=1e-14)

    def test_rejects_unnormalized_or_negative(self):
        with pytest.raises(ValueError):
            PolynomialPair(lam_coeffs=(0.5, 0.6), rho_coeffs=(1.0,))
        with pytest.raises(ValueError):
            PolynomialPair(lam_coeffs=(-0.5, 1.5), rho_coeffs=(1.0,))
        with pytest.raises(ValueError):
            PolynomialPair(lam_coeffs=(), rho_coeffs=(1.0,))

    def test_derivatives(self):
        pp = PolynomialPair(lam_coeffs=(0.0, 0.0, 1.0), rho_coeffs=(0.0, 0.0, 0.0, 1.0))
        assert pp.lam(0.5, order=1) == pytest.approx(1.0)  # d/dx x^2 = 2x
        assert pp.rho(1.0, order=1) == pytest.approx(3.0)  # d/dx x^3 = 3x^2
        assert pp.rho(1.0, order=2) == pytest.approx(6.0)
