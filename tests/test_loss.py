"""Tests for training error and the excess-entropy bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaling_lens.loss import (
    APPROX_CONSTANT_DISCREPANCY,
    excess_entropy_lb,
    frontier_loss_curve,
    loss_point,
    training_error_approx,
    training_error_exact,
)
from scaling_lens.optimizer import BudgetSpec


def degree_sum_oracle(R, d_t, P_b):
    """Independent arbiter: sum the Binomial(R, d_t/R) text-degree law
    against the within-text failure probability 1 - (1-P_b)^k - k P_b
    (1-P_b)^(k-1), never forming the thinned product d_t P_b / R that the
    closed form is built on."""
    q = d_t / R
    if q == 0.0 or P_b == 0.0:
        return 0.0
    terms = []
    for k in range(2, R + 1):
        log_bin = math.lgamma(R + 1) - math.lgamma(k + 1) - math.lgamma(R - k + 1)
        log_deg = log_bin + k * math.log(q) + (R - k) * math.log1p(-q)
        inner = 1.0 - (1.0 - P_b) ** k - k * P_b * (1.0 - P_b) ** (k - 1)
        terms.append(math.exp(log_deg) * inner)
    return math.fsum(terms)


class TestTrainingErrorExact:
    def test_no_erasures_no_error(self):
        assert training_error_exact(50, 4.0, 0.0) == 0.0

    def test_saturated_limit(self):
        # d_t = R, P_b = 1: every text sees every concept unlearned
        assert training_error_exact(500, 500.0, 1.0) == 1.0
        # a single concept cannot supply two unlearned neighbors
        assert training_error_exact(1, 1.0, 1.0) == 0.0

    def test_matches_degree_sum(self):
        a = training_error_exact(50, 4.0, 0.1)
        b = degree_sum_oracle(50, 4.0, 0.1)
        assert abs(a - b) < 1e-10

    def test_degree_sum_random_grid(self):
        """Closed form vs the k-sum on 50 random (R, d_t, P_b) draws."""
        rng = np.random.default_rng(1234)
        for _ in range(50):
            R = int(rng.integers(2, 201))
            # the degree decomposition is Binomial(R, d_t/R), so d_t <= R
            d_t = float(rng.uniform(0.1, 0.99 * R))
            P_b = float(rng.uniform(0.0, 1.0))
            a = training_error_exact(R, d_t, P_b)
            b = degree_sum_oracle(R, d_t, P_b)
            assert abs(a - b) < 1e-10, (R, d_t, P_b)

    def test_monotone_in_pb_and_dt(self):
        pbs = np.linspace(0.0, 1.0, 21)
        vals = [training_error_exact(80, 5.0, p) for p in pbs]
        assert np.all(np.diff(vals) >= 0)
        dts = np.linspace(0.1, 20.0, 25)
        vals = [training_error_exact(80, d, 0.3) for d in dts]
        assert np.all(np.diff(vals) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            training_error_exact(0, 4.0, 0.1)
        with pytest.raises(ValueError):
            training_error_exact(50, 4.0, 1.5)
        with pytest.raises(ValueError):
            training_error_exact(50, -1.0, 0.1)
        with pytest.raises(ValueError):
            training_error_exact(10, 20.0, 0.6)  # mean exceeds concept count

    @pytest.mark.parametrize(
        "R, d_t", [(10, math.nan), (10, math.inf), (math.nan, 6.0), (math.inf, 6.0)]
    )
    def test_non_finite_inputs_rejected(self, R, d_t):
        """Each gave a number: NaN passed every check, and the final clamp
        turned the NaN result into 0."""
        with pytest.raises(ValueError, match="finite"):
            training_error_exact(R, d_t, 0.1)


class TestTrainingErrorApprox:
    def test_zero(self):
        assert training_error_approx(6.0, 0.0, 0.5) == 0.0

    def test_arithmetic(self):
        np.testing.assert_allclose(
            training_error_approx(6.0, 1e-3, 0.5), 5.76e-4, rtol=1e-12
        )

    def test_small_pb_series_ratio(self):
        """The exact formula expands to (d_t P_b)^2 / 2 as P_b -> 0."""
        for R in (10**4, 10**5):
            for d_t, p_b in ((6.0, 1e-3), (2.0, 1e-4)):
                exact = training_error_exact(R, d_t, p_b)
                ratio = exact / (d_t**2 * p_b**2 / 2.0)
                assert abs(ratio - 1.0) < 0.1, (R, d_t, p_b, ratio)

    def test_constant_discrepancy_metadata(self):
        """The quadratic shortcut sits a fixed factor 8 above the series."""
        d_t, raw, eps = 6.0, 1e-3, 0.5
        series = d_t**2 * (raw / eps) ** 2 / 2.0
        assert training_error_approx(d_t, raw, eps) / series == 8.0
        assert APPROX_CONSTANT_DISCREPANCY["approx_over_exact_ratio"] == 8.0
        assert (
            APPROX_CONSTANT_DISCREPANCY["flag"]
            == "training-error-approx-constant-discrepancy"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            training_error_approx(6.0, -1e-3, 0.5)
        with pytest.raises(ValueError):
            training_error_approx(6.0, 1e-3, 0.0)


class TestExcessEntropyLb:
    def test_endpoints(self):
        assert excess_entropy_lb(0.0) == 0.0
        assert excess_entropy_lb(1.0) == 0.5

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_bounded_by_half(self, x):
        assert 0.0 <= excess_entropy_lb(x) <= 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            excess_entropy_lb(1.5)


class TestLossPoint:
    def test_wiring(self):
        pt = loss_point(P_b_raw=0.05, R=200, d_t=6.0, epsilon=0.5)
        assert pt.P_b == 0.1
        assert pt.P_e_train_exact == training_error_exact(200, 6.0, 0.1)
        assert pt.P_e_train_approx == training_error_approx(6.0, 0.05, 0.5)
        assert pt.excess_entropy_lb == 0.5 * pt.P_e_train_exact**2

    def test_rate_clamped_to_one(self):
        pt = loss_point(P_b_raw=0.9, R=200, d_t=6.0, epsilon=0.5)
        assert pt.P_b == 1.0

    def test_nan_rate_rejected(self):
        """The clamp to [0, 1] would turn a NaN rate into P_b = 0."""
        with pytest.raises(ValueError, match="NaN"):
            loss_point(math.nan, 10, 6.0, 0.5)


@pytest.fixture(scope="module")
def desk_rows():
    specs = [BudgetSpec(C=c, d_t=6.0) for c in np.geomspace(6e4, 6e7, 7)]
    return frontier_loss_curve(specs)


class TestFrontierLossCurve:
    def test_monotone_nonincreasing(self, desk_rows):
        lbs = np.array([r.excess_entropy_lb for r in desk_rows])
        assert np.all(np.diff(lbs) <= 1e-12)

    def test_strictly_decreasing_in_n_star(self, desk_rows):
        ns = np.array([r.N_star for r in desk_rows])
        lbs = np.array([r.excess_entropy_lb for r in desk_rows])
        assert np.all(np.diff(ns) > 0)
        assert np.all(np.diff(lbs) < 0)

    def test_loglog_slope_steeper_than_threshold(self, desk_rows):
        ns = np.log10([r.N_star for r in desk_rows])
        lbs = np.log10([r.excess_entropy_lb for r in desk_rows])
        slope = np.polyfit(ns, lbs, 1)[0]
        assert slope < -0.3

    def test_row_fields_consistent(self, desk_rows):
        for r in desk_rows:
            assert 0.0 <= r.P_e_train_exact <= 1.0
            assert r.excess_entropy_lb == 0.5 * r.P_e_train_exact**2

    def test_empty_input(self):
        assert frontier_loss_curve([]) == []
