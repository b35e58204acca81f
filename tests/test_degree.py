"""Tests for the binomial degree-distribution model and its generating functions."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from scaling_lens.degree import (
    BinomialRows,
    DegreeModel,
    PoissonLimit,
    PolynomialPair,
    binomial_gen,
    log_gen,
)
from scaling_lens.threshold import find_threshold


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

    @pytest.mark.parametrize(
        "R, T", [(1000, math.nan), (1000, math.inf), (math.nan, 4500), (math.inf, 4500)]
    )
    def test_rejects_non_finite_sizes(self, R, T):
        """NaN and inf fail every comparison a size check could make, so
        each check must be one that NaN fails, or the solve runs on NaN."""
        with pytest.raises(ValueError, match="finite"):
            DegreeModel(R=R, T=T, d_t=6.0)

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
            PoissonLimit(R=10**6, T=10**7, d_t=4.0),
        ]
        for m in models:
            for which in ("L", "lam", "rho"):
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
        mp = PoissonLimit(R=10**9, T=10**9, d_t=6.0)
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

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_plain_and_masked_paths_agree(self, order):
        """Entries no exponent zeroes get the same bits from the plain exp
        (an input with nothing to zero) as from the masked one (the same
        entries beside one that underflows), subnormal values included, for
        1-D and 0-d inputs."""
        n, p = 2000.0, 0.5
        band = 1.0 + np.expm1(np.linspace(-745.0, -700.0, 181) / (n - order)) / p
        clean = np.concatenate((band, np.linspace(0.4, 1.0, 257)))
        clean = clean[log_gen(n - order, p, clean) >= -745.0]
        assert clean.size > 400
        plain = binomial_gen(n, p, clean, order)
        masked = binomial_gen(n, p, np.append(clean, 0.0), order)
        assert masked[-1] == 0.0 and not np.signbit(masked[-1])
        assert plain.shape == clean.shape
        assert plain.tobytes() == masked[:-1].tobytes()
        assert ((plain > 0.0) & (plain < np.finfo(float).tiny)).any()
        for k in (0, 90, clean.size - 1):
            got = binomial_gen(n, p, float(clean[k]), order)
            assert isinstance(got, np.ndarray) and got.ndim == 0
            assert got.tobytes() == plain[k].tobytes()
        for x in (0.0, math.nan):  # a 0-d zeroed entry, and NaN on the plain path
            got = binomial_gen(n, p, x, order)
            assert isinstance(got, np.ndarray) and got.ndim == 0
            assert (got == 0.0 and not np.signbit(got)) if x == 0.0 else np.isnan(got)

    @pytest.mark.parametrize("mode", ["exact_log", "poisson_limit"])
    def test_float_input_matches_the_array_path(self, mode):
        """A float x (np.float64 included) returns a float with the bits of
        the same x inside an array, across the underflow band and for NaN."""
        ensemble = PoissonLimit if mode == "poisson_limit" else DegreeModel
        models = [
            ensemble(R=100, T=200, d_t=6.0),
            ensemble(R=10**6, T=10**6, d_t=1000.0),
            ensemble(R=14545, T=71616, d_t=6.0),
        ]
        rng = np.random.default_rng(7)
        for m in models:
            for which in ("L", "lam", "rho"):
                n = m._exponent(which)
                # x where the order-0 exponent n*log1p(p*(x - 1)) runs from -800 to -700
                band = 1.0 + np.expm1(np.linspace(-800.0, -700.0, 41) / n) / m.p
                xs = np.concatenate((band, rng.uniform(0.0, 1.0, 40), [0.0, 1.0, math.nan]))
                for order in (0, 1, 2):
                    want = m.gen(which, xs, order)
                    for k, x in enumerate(xs.tolist()):
                        for scalar in (x, np.float64(x)):
                            got = m.gen(which, scalar, order)
                            assert type(got) is float
                            assert np.float64(got).tobytes() == want[k].tobytes(), (which, order, x)
                    assert m.gen(which, np.array(xs[3]), order) == want[3]

    def test_multi_term_float_path_matches_binomial_gen(self):
        """_gen_at with all nine (which, order) at one float gives, term by
        term, the bits of binomial_gen on an array of the same points:
        across each function's underflow band, at 0, 1 and NaN, and with a
        real exponent R/eps - 1.  An unknown name is a ValueError."""
        terms = tuple((which, order) for which in ("L", "lam", "rho") for order in (0, 1, 2))
        models = [
            DegreeModel(R=100, T=200, d_t=6.0),
            DegreeModel(R=10**6, T=10**6, d_t=1000.0),
            DegreeModel(R=14545, T=71616, d_t=6.0),
            DegreeModel(R=1001, T=3000, d_t=6.0, epsilon=0.3),  # R/eps = 3336.67
        ]
        rng = np.random.default_rng(5)
        zeroed = subnormal = 0
        for m in models:
            bands = [
                1.0 + np.expm1(np.linspace(-800.0, -700.0, 41) / m._exponent(which)) / m.p
                for which in ("L", "lam", "rho")
            ]
            xs = np.concatenate((*bands, rng.uniform(0.0, 1.0, 20), [0.0, 1.0, math.nan]))
            want = np.array([binomial_gen(m._exponent(w), m.p, xs, k) for w, k in terms]).T
            for x, row in zip(xs.tolist(), want):
                got = m._gen_at(x, terms)
                assert all(type(v) is float for v in got)
                assert np.array(got).tobytes() == row.tobytes(), (m, x)
            zeroed += int(np.count_nonzero(want == 0.0))
            subnormal += int(np.count_nonzero((want > 0.0) & (want < np.finfo(float).tiny)))
        assert zeroed and subnormal
        with pytest.raises(ValueError):
            models[0]._gen_at(0.5, (("Q", 0),))

    @pytest.mark.parametrize("ensemble", [DegreeModel, PoissonLimit])
    def test_array_g_is_the_gen_composition(self, ensemble):
        """g on an array has the bits of lam(1 - rho(1 - x)), across the
        underflow band of rho and for NaN."""
        rng = np.random.default_rng(3)
        for R, T, d_t in [(100, 200, 6.0), (10**6, 10**6, 1000.0), (14545, 71616, 6.0)]:
            m = ensemble(R=R, T=T, d_t=d_t)
            n = m._exponent("rho")
            band = -np.expm1(np.linspace(-800.0, -700.0, 41) / n) / m.p
            xs = np.concatenate((band, rng.uniform(0.0, 1.0, 40), [0.0, 1.0, math.nan]))
            assert m.g(xs).tobytes() == m.lam(1.0 - m.rho(1.0 - xs)).tobytes()

    def test_poisson_limit_is_a_degree_model(self):
        """PoissonLimit keeps DegreeModel's four fields and checks."""
        names = [f.name for f in dataclasses.fields(DegreeModel)]
        assert names == [f.name for f in dataclasses.fields(PoissonLimit)]
        assert names == ["R", "T", "d_t", "epsilon"]
        assert PoissonLimit(R=10, T=10, d_t=2.0) != DegreeModel(R=10, T=10, d_t=2.0)
        with pytest.raises(ValueError):
            PoissonLimit(R=10, T=10, d_t=10.0)

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


class TestScalarConstants:
    """The constants that DegreeModel computes for its scalar path at
    construction follow its fields through replace, copy and pickle."""

    def test_copies_solve_like_fresh_models(self):
        m = DegreeModel(R=1000, T=4500, d_t=6.0)
        cases = {
            "replace T": (dataclasses.replace(m, T=6500), DegreeModel(R=1000, T=6500, d_t=6.0)),
            "replace eps": (
                dataclasses.replace(m, epsilon=0.4),
                DegreeModel(R=1000, T=4500, d_t=6.0, epsilon=0.4),
            ),
            "copy": (copy.copy(m), DegreeModel(R=1000, T=4500, d_t=6.0)),
            "pickle": (pickle.loads(pickle.dumps(m)), DegreeModel(R=1000, T=4500, d_t=6.0)),
        }
        for name, (got, fresh) in cases.items():
            assert got == fresh, name
            assert find_threshold(got) == find_threshold(fresh), name
        assert find_threshold(cases["replace T"][0]) != find_threshold(m)
        assert find_threshold(cases["replace eps"][0]) != find_threshold(m)
        assert [f.name for f in dataclasses.fields(DegreeModel)] == ["R", "T", "d_t", "epsilon"]


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
            mp = PoissonLimit(R=R, T=T, d_t=d_t)
            for which in ("L", "lam", "rho"):
                np.testing.assert_allclose(
                    me.gen(which, xs), mp.gen(which, xs), atol=1e-6, rtol=0
                )

    def test_monotone_nondecreasing_in_x(self):
        xs = np.linspace(0.0, 1.0, 101)
        m = DegreeModel(R=300, T=500, d_t=7.0, epsilon=0.4)
        for which in ("L", "lam", "rho"):
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
        for which in ("L", "lam", "rho"):
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


class TestBinomialRows:
    """BinomialRows, many (R, T) rows at once, gives each row the bits of
    its own DegreeModel's array path."""

    def test_rows_match_each_row_model(self):
        """A column of rows times an x array, for g, rho and 1 - L."""
        rng = np.random.default_rng(11)
        xs = np.concatenate((np.geomspace(1e-9, 1.0, 64), [math.nan]))
        for d_t, eps in ((6.0, 0.5), (40.0, 0.3), (900.0, 0.9)):
            R = np.unique(np.rint(10 ** rng.uniform(np.log10(d_t + 1), 6.0, 40)))
            T = np.maximum(1.0, np.floor(10 ** rng.uniform(-0.5, 3.5, R.size) * R / d_t))
            rows = BinomialRows(R=R[:, None], T=T[:, None], d_t=d_t, epsilon=eps)
            g, rho = rows.g(xs), rows.rho(1.0 - xs)
            complement = rows.L_complement(xs)
            assert g.shape == rho.shape == complement.shape == (R.size, xs.size)
            zeroed = 0
            for i, (r, t) in enumerate(zip(R.tolist(), T.tolist())):
                m = DegreeModel(R=int(r), T=int(t), d_t=d_t, epsilon=eps)
                assert g[i].tobytes() == m.g(xs).tobytes()
                assert rho[i].tobytes() == m.rho(1.0 - xs).tobytes()
                assert complement[i].tobytes() == (-np.expm1(log_gen(float(t), m.p, xs))).tobytes()
                zeroed += int(np.count_nonzero(g[i] == 0.0))
            assert zeroed  # some rows reach the underflow mask


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("side", ["lam_coeffs", "rho_coeffs"])
    def test_rejects_non_finite_coefficients(self, side, bad):
        coeffs = {"lam_coeffs": (0.0, 0.0, 1.0), "rho_coeffs": (0.0, 1.0)}
        coeffs[side] = (bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            PolynomialPair(**coeffs)

    def test_derivatives(self):
        pp = PolynomialPair(lam_coeffs=(0.0, 0.0, 1.0), rho_coeffs=(0.0, 0.0, 0.0, 1.0))
        assert pp.lam(0.5, order=1) == pytest.approx(1.0)  # d/dx x^2 = 2x
        assert pp.rho(1.0, order=1) == pytest.approx(3.0)  # d/dx x^3 = 3x^2
        assert pp.rho(1.0, order=2) == pytest.approx(6.0)


ENSEMBLES = {
    "exact_log": DegreeModel(R=100, T=200, d_t=6.0, epsilon=0.4),
    "poisson_limit": PoissonLimit(R=100, T=200, d_t=6.0, epsilon=0.4),
    "pair_3_6": PolynomialPair(lam_coeffs=(0.0, 0.0, 1.0), rho_coeffs=(0.0,) * 5 + (1.0,)),
    "pair_two_term": PolynomialPair(lam_coeffs=(0.0, 0.3, 0.7), rho_coeffs=(0.0,) * 3 + (0.6, 0.4)),
}


@pytest.mark.parametrize("name", ENSEMBLES)
class TestEnsembleInterface:
    """Both ensembles answer the interface the threshold solver reads, and
    each part of it agrees with an independent evaluation of the others."""

    XS = np.linspace(0.05, 0.95, 19)

    def test_gen_derivatives_match_central_differences(self, name):
        m, h = ENSEMBLES[name], 1e-5
        for which in ("L", "lam", "rho"):
            for order in (1, 2):
                up, down = (m.gen(which, self.XS + s, order - 1) for s in (h, -h))
                diff = (up - down) / (2 * h)
                np.testing.assert_allclose(m.gen(which, self.XS, order), diff, rtol=1e-7, atol=1e-9)

    def test_gen_takes_floats_and_arrays(self, name):
        m = ENSEMBLES[name]
        for which in ("L", "lam", "rho"):
            for order in (0, 1, 2):
                vec = m.gen(which, self.XS, order)
                assert isinstance(vec, np.ndarray) and vec.shape == self.XS.shape
                got = [m.gen(which, float(x), order) for x in self.XS]
                assert all(type(v) is float for v in got)
                np.testing.assert_allclose(got, vec, rtol=1e-15, atol=0)
                assert m._gen_at(0.3, ((which, order),)) == [m.gen(which, 0.3, order)]
        with pytest.raises(ValueError):
            m.gen("lam", 0.5, order=3)
        with pytest.raises(ValueError):
            m.gen("Q", 0.5)

    def test_integral_matches_quadrature(self, name):
        m = ENSEMBLES[name]
        for which in ("lam", "rho"):
            want, _ = integrate.quad(lambda x: m.gen(which, x), 0.0, 1.0, epsabs=1e-13)
            np.testing.assert_allclose(m.integral(which), want, rtol=1e-10)
        with pytest.raises(ValueError):
            m.integral("L")

    def test_l_prime_at_one_is_the_derivative(self, name):
        m = ENSEMBLES[name]
        np.testing.assert_allclose(m.l_prime_at_one(), m.gen("L", 1.0, 1), rtol=1e-12)

    def test_scalar_g_composes_lam_and_rho(self, name):
        m = ENSEMBLES[name]
        for x in [0.0, *self.XS.tolist(), 1.0]:
            got = m.g(x)
            assert type(got) is float
            np.testing.assert_allclose(got, m.lam(1.0 - m.rho(1.0 - x)), rtol=1e-12, atol=0)
        assert m.g(0.0) == m.lam(0.0)

    def test_array_g_composes_lam_and_rho(self, name):
        """g takes arrays too, with the bits of the composed gen calls."""
        m = ENSEMBLES[name]
        xs = np.concatenate(([0.0], self.XS, [1.0]))
        got = m.g(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert got.tobytes() == m.lam(1.0 - m.rho(1.0 - xs)).tobytes()
