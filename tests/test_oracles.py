"""Closed-form constants, quadrature oracles, and their frozen values."""

import math
import warnings

import numpy as np
import pytest

from drchm.model import ModelParams, RegimeError
from drchm.oracles import (
    CovarianceConstants,
    adjudicated_constants,
    alive_moment_quad,
    half_line_rule,
    improper_power_quad,
    log_power_quad,
    mean_edge_count,
    oracle_covariance,
    oracle_variance,
    oracle_variance_terms,
    printed_covariance,
    printed_variance_limit,
    quad_1d,
    spatial_moment_quad,
    spatial_size_quad,
    stable_band_variance,
    stable_band_variance_quad,
    stable_mean,
    stable_mean_quad,
    temporal_pair_quad,
    temporal_profile_quad,
    window_overlap_profile,
)
from drchm.sampler import _nu_tail, limit_jump_threshold


class TestQuadrature:
    def test_quad_1d_polynomial(self):
        assert quad_1d(lambda x: 3 * x**2, 0.0, 2.0) == pytest.approx(8.0)

    def test_quad_1d_half_line(self):
        assert quad_1d(lambda x: np.exp(-x), 0.0, np.inf) == pytest.approx(1.0)

    def test_improper_power(self):
        # int_0^1 u^-0.4 du = 1/0.6 despite the endpoint singularity
        val = improper_power_quad(lambda u: u ** (-0.4), 0.4)
        assert val == pytest.approx(1.0 / 0.6, rel=1e-10)

    def test_log_power(self):
        val = log_power_quad(lambda u: u ** (-0.7), lo=0.01, hi=1.0)
        exact = (1.0 - 0.01**0.3) / 0.3
        assert val == pytest.approx(exact, rel=1e-10)

    def test_half_line_rule_exp_moments(self):
        q, w = half_line_rule()
        for k in (0, 1, 2, 3):
            assert float(np.sum(w * q**k * np.exp(-q))) == pytest.approx(
                math.factorial(k), rel=1e-10
            )

    def test_window_overlap_profile_tiny_gamma(self):
        # at gamma -> 0 every kink maps to u = 0 or 1 and rho is c for all u,
        # so the profile is the length of [z - c, z + c] inside [0, n]; the
        # zero-width panels at u = 0 must not raise or warn
        params = ModelParams(beta=0.25, gamma=1e-300, gamma_prime=0.2, n=10.0)
        n, w = 10.0, 0.5
        c = params.beta * w ** (-params.gamma_prime)
        z = np.array([0.0, n, 3.7, n + 0.5 * c, n + 3.0 * c])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            g = window_overlap_profile(params, z, w, n)
        expected = np.maximum(np.minimum(z + c, n) - np.maximum(z - c, 0.0), 0.0)
        np.testing.assert_allclose(g, expected, rtol=1e-12, atol=0.0)


# ordered time pairs t1 <= t2, the diagonal included
TIME_PAIRS = [
    (t1, t2) for t1 in (0.0, 0.3, 0.5, 1.0) for t2 in (0.0, 0.3, 0.5, 1.0) if t1 <= t2
]


class TestTemporalOracles:
    """The half-line sums against the closed forms they must reproduce."""

    @pytest.mark.parametrize("t1, t2", TIME_PAIRS)
    def test_profile(self, t1, t2):
        # r below, at and above t = t2
        for r in (t1 - 2.0, t1, t2, t2 + 0.25):
            exact = math.exp(-(t2 - r)) if r <= t2 else 0.0
            assert temporal_profile_quad(r, t2) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_profile_vectorized(self):
        r = np.array([-3.0, 0.0, 0.5, 0.75])
        out = temporal_profile_quad(r, 0.5)
        assert out.shape == (4,)
        np.testing.assert_allclose(out, np.where(r <= 0.5, np.exp(r - 0.5), 0.0), rtol=1e-12)

    @pytest.mark.parametrize("t1, t2", TIME_PAIRS)
    def test_pair(self, t1, t2):
        exact = math.exp(-(t2 - t1)) / 2.0
        assert temporal_pair_quad(t1, t2) == pytest.approx(exact, rel=1e-12)
        assert temporal_pair_quad(t2, t1) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("t1, t2", TIME_PAIRS)
    def test_alive_moments(self, t1, t2):
        h = t2 - t1
        assert alive_moment_quad(t1, t2, 1) == pytest.approx(math.exp(-h), rel=1e-12)
        assert alive_moment_quad(t1, t2, 2) == pytest.approx(
            (2.0 + h) * math.exp(-h), rel=1e-12
        )


class TestConstants:
    def test_frozen_values_at_g(self, params_g):
        c = CovarianceConstants.from_params(params_g)
        assert c.c1 == pytest.approx(0.78125)
        assert c.c2 == pytest.approx(0.6510416666666666)
        assert c.c3 == pytest.approx(0.6510416666666666)

    def test_regime_guard(self, params_s):
        with pytest.raises(RegimeError):
            CovarianceConstants.from_params(params_s)

    def test_printed_forms_disagree_with_each_other(self, params_g):
        # the two circulating closed forms are mutually inconsistent at lag 0
        assert printed_covariance(params_g, 0.0) == pytest.approx(2.734375)
        assert printed_variance_limit(params_g) == pytest.approx(1.7578125)

    def test_adjudicated_lag_zero(self, params_g):
        c = adjudicated_constants(params_g)
        assert float(c.covariance(0.0)) == pytest.approx(2.408854166666666)

    def test_covariance_array_input(self, params_g):
        c = adjudicated_constants(params_g)
        lags = np.array([0.0, 0.2, 0.5])
        out = c.covariance(lags)
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0)


class TestMeanOracle:
    def test_full_range_value(self, params_g):
        assert mean_edge_count(params_g) == pytest.approx(78.125)

    def test_mark_restricted_additivity(self, params_g):
        thr = 0.3
        total = mean_edge_count(params_g)
        assert mean_edge_count(params_g, 0.0, thr) + mean_edge_count(
            params_g, thr, 1.0
        ) == pytest.approx(total)

    def test_matches_spatial_quadrature(self, params_g):
        # per-vertex spatial neighborhood mass integrated over u
        quad = spatial_moment_quad(params_g, 1.0) * params_g.n
        assert mean_edge_count(params_g) == pytest.approx(quad, rel=1e-8)

    def test_invalid_range(self, params_g):
        with pytest.raises(ValueError):
            mean_edge_count(params_g, 0.5, 0.3)

    def test_spatial_size_quad(self, params_g):
        # closed form c_tilde u^-gamma against the quadrature
        u = 0.37
        expected = params_g.c_tilde * u ** (-params_g.gamma)
        assert spatial_size_quad(params_g, u) == pytest.approx(expected, rel=1e-9)


class TestVarianceOracles:
    def test_oracle_matches_adjudicated_closed_form(self, params_g):
        # the n -> infinity covariance oracle equals the adjudicated closed
        # form at every tested lag
        c = adjudicated_constants(params_g)
        for lag in (0.0, 0.1, 0.2, 0.5):
            orc = oracle_covariance(params_g, 0.3, 0.3 + lag)
            assert orc.oracle == pytest.approx(
                float(c.covariance(lag)), rel=1e-8
            ), f"lag {lag}"

    def test_oracle_disagrees_with_printed(self, params_g):
        orc = oracle_covariance(params_g, 0.3, 0.3)
        assert abs(orc.oracle - printed_covariance(params_g, 0.0)) > 0.1
        assert abs(orc.oracle - printed_variance_limit(params_g)) > 0.1

    def test_frozen_lag_02(self, params_g):
        orc = oracle_covariance(params_g, 0.3, 0.5)
        assert orc.oracle == pytest.approx(2.0788085527370628, rel=1e-9)

    def test_finite_n_variance_near_limit(self):
        p = ModelParams(0.25, 0.2, 0.2, 500.0)
        per_unit = oracle_variance(p, 0.5) / p.n
        limit = float(adjudicated_constants(p).covariance(0.0))
        # window-edge effect only in the pair term: small at n = 500
        assert per_unit == pytest.approx(limit, rel=1e-3)
        assert per_unit < limit

    def test_variance_terms_positive(self, params_g):
        terms = oracle_variance_terms(params_g, 0.5)
        assert terms.single > 0 and terms.square > 0 and terms.pair > 0
        assert terms.total == pytest.approx(
            terms.single + terms.square + terms.pair
        )

    def test_time_symmetry(self, params_g):
        a = oracle_covariance(params_g, 0.2, 0.7)
        b = oracle_covariance(params_g, 0.7, 0.2)
        assert a.oracle == pytest.approx(b.oracle)


class TestStableOracles:
    def test_jump_tail_consistency(self, params_s):
        # mass above the eps-threshold is exactly 1/eps
        for eps in (1.0, 0.1, 0.01):
            thr = limit_jump_threshold(params_s, eps)
            assert _nu_tail(params_s, thr) == pytest.approx(1.0 / eps)

    def test_stable_mean_frozen(self, params_s):
        assert stable_mean(params_s, 0.01) == pytest.approx(8.293899386531193)

    def test_stable_mean_matches_quadrature(self, params_s):
        for eps in (0.5, 0.1, 0.01):
            assert stable_mean(params_s, eps) == pytest.approx(
                stable_mean_quad(params_s, eps), rel=1e-8
            )

    def test_band_variance_frozen(self, params_s):
        assert stable_band_variance(params_s, 0.1, 0.01) == pytest.approx(
            0.5015249787177473
        )

    def test_band_variance_matches_quadrature(self, params_s):
        assert stable_band_variance(params_s, 0.1, 0.01) == pytest.approx(
            stable_band_variance_quad(params_s, 0.1, 0.01), rel=1e-8
        )

    def test_band_variance_additive(self, params_s):
        total = stable_band_variance(params_s, 0.2, 0.01)
        split = stable_band_variance(params_s, 0.2, 0.05) + stable_band_variance(
            params_s, 0.05, 0.01
        )
        assert total == pytest.approx(split)

    def test_guards(self, params_g, params_s):
        with pytest.raises(RegimeError):
            stable_mean(params_g, 0.1)
        with pytest.raises(ValueError):
            stable_band_variance(params_s, 0.01, 0.1)
