"""Closed-form constants, quadrature oracles, and their frozen values."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drchm import oracles
from drchm.model import ModelParams, RegimeError
from drchm.oracles import (
    CovarianceConstants,
    adjudicated_constants,
    alive_moment_quad,
    gl_panel,
    half_line_rule,
    log_rule,
    mean_edge_count,
    oracle_covariance,
    oracle_variance,
    oracle_variance_terms,
    pair_spatial_limit_quad,
    power_rule,
    printed_covariance,
    printed_variance_limit,
    spatial_moment_quad,
    spatial_size_quad,
    stable_band_variance,
    stable_band_variance_quad,
    stable_mean,
    stable_mean_quad,
    temporal_pair_quad,
    temporal_profile_quad,
    window_overlap_profile,
    window_pair_spatial_quad,
)
from drchm.sampler import _nu_tail, limit_jump_threshold


class TestQuadrature:
    @pytest.mark.parametrize("p", [-1.5, 0.0, 0.2, 0.499, 0.9, 0.97, 0.98, 0.998, 0.9998])
    def test_power_rule_exact_for_pure_powers(self, p):
        # near p = 1 most of the mass of u^-p lies below the smallest double
        u, wu = power_rule(p)
        assert np.all(u > 0.0)
        assert float(wu @ u**-p) == pytest.approx(1.0 / (1.0 - p), rel=1e-13)

    @pytest.mark.parametrize("p", [-1.5, 0.0, 0.2, 0.499, 0.9, 0.97])
    def test_power_rule_exact_for_polynomials_in_v(self, p):
        # u^-p times powers of u^(1 - p) = v: exact up to degree 47 in v
        u, wu = power_rule(p)
        for k in range(1, 4):
            exact = 1.0 / ((k + 1) * (1.0 - p))
            assert float(wu @ u ** (k * (1.0 - p) - p)) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9, 0.95])
    def test_power_rule_is_the_plain_substitution(self, p):
        # below p = 0.97 the nodes and weights are those of u = v^s on one
        # 24-node panel, bit for bit
        s = 1.0 / (1.0 - p)
        v, wv = (a.ravel() for a in gl_panel(0.0, 1.0, 24))
        u, wu = power_rule(p)
        np.testing.assert_array_equal(u, v**s)
        np.testing.assert_array_equal(wu, wv * s * v ** (s - 1.0))

    def test_power_rule_rejects_p_at_least_one(self):
        with pytest.raises(ValueError):
            power_rule(1.0)

    @pytest.mark.parametrize("lo, hi", [(0.01, 1.0), (1e-6, 1.0), (0.01, 0.1), (0.5, 3.0)])
    def test_log_rule_exact_for_powers(self, lo, hi):
        u, wu = log_rule(lo, hi)
        for a in (-0.7, 0.0, 0.5, 2.0):
            exact = (hi ** (1.0 + a) - lo ** (1.0 + a)) / (1.0 + a)
            assert float(wu @ u**a) == pytest.approx(exact, rel=1e-12)

    def test_log_rule_rejects_bad_range(self):
        with pytest.raises(ValueError):
            log_rule(0.0)
        with pytest.raises(ValueError):
            log_rule(0.5, 0.5)

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


def _mass_above(c, gamma, a, b):
    """Integral over t in [a, b] (0 <= a <= b) of min(1, (c/t)^(1/gamma)),
    the u-measure of {c u^-gamma > t}.  Above c it is written
    gamma/(1-gamma) * c^(1/gamma) * lo^q * (-expm1(q * log1p((b-lo)/lo))),
    q = 1 - 1/gamma, with c^(1/gamma) lo^q as lo (c/lo)^(1/gamma): the plain
    difference of antiderivatives cancels completely where b - lo << lo."""
    below = max(min(b, c) - a, 0.0)
    lo = max(a, c)
    if b <= lo:
        return below
    q = 1.0 - 1.0 / gamma
    tail = -math.expm1(q * math.log1p((b - lo) / lo))
    return below + gamma / (1.0 - gamma) * lo * (c / lo) ** (1.0 / gamma) * tail


def _profile_closed_form(params, z, w, n):
    """window_overlap_profile in closed form.  The overlap of [z - rho,
    z + rho] with [0, n] grows at rate 1 in rho for each window end farther
    than rho from z, so g(z) is _mass_above over the distances to the ends."""
    c = params.beta * w ** (-params.gamma_prime)
    if z < 0.0:
        return _mass_above(c, params.gamma, -z, n - z)
    if z <= n:
        return _mass_above(c, params.gamma, 0.0, z) + _mass_above(c, params.gamma, 0.0, n - z)
    return _mass_above(c, params.gamma, z - n, z)


NEAR_0_OR_HALF = st.one_of(st.floats(1e-6, 0.02), st.floats(0.48, 0.4999))


class TestWindowPair:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        gamma=NEAR_0_OR_HALF,
        gamma_prime=NEAR_0_OR_HALF,
        beta=st.floats(0.1, 1.0),
        log_n=st.floats(0.0, 4.0),
        root_w=st.floats(1e-3, 1.0),
        inside=st.floats(0.0, 1.0),
        log_gap=st.floats(-3.0, 2.0),
    )
    def test_profile_matches_closed_form(
        self, gamma, gamma_prime, beta, log_n, root_w, inside, log_gap
    ):
        # z inside the window and outside it on both sides, at distances
        # scaled by c and by n
        n = 10.0**log_n
        w = root_w**3
        params = ModelParams(beta=beta, gamma=gamma, gamma_prime=gamma_prime, n=n)
        c = beta * w ** (-gamma_prime)
        gap = 10.0**log_gap
        z = np.array([inside * n, n / 2.0, n + c * gap, -c * gap, n + n * gap, -n * gap])
        value = window_overlap_profile(params, z, w, n)
        reference = np.array([_profile_closed_form(params, zk, w, n) for zk in z])
        # far outside the profile falls below the smallest normal double
        np.testing.assert_allclose(value, reference, rtol=1e-9, atol=1e-290)

    def test_frozen_values(self):
        # References computed with the closed-form profile above, integrated
        # over z by adaptive quad split at the kinks (epsrel 1e-13) and over w
        # by adaptive quad (epsrel 1e-12)
        g20 = ModelParams(0.25, 0.2, 0.2, 20.0)
        g500 = ModelParams(0.25, 0.2, 0.2, 500.0)
        assert window_pair_spatial_quad(g20, 20.0) == pytest.approx(
            12.797653642658164, rel=1e-9
        )
        assert window_pair_spatial_quad(g500, 500.0) == pytest.approx(
            325.29761919393326, rel=1e-9
        )

    def test_w_rule_converged_near_half(self, monkeypatch):
        # gamma' near 1/2 and a long window: most of the w-mass lies where
        # c(w) < n/2, on the panel substituted for w^-2gamma'
        params = ModelParams(0.25, 0.2, 0.45, 1e4)
        value = window_pair_spatial_quad(params, 1e4)
        monkeypatch.setattr(oracles, "PROFILE_W_ORDER", 64)
        assert window_pair_spatial_quad(params, 1e4) == pytest.approx(value, rel=1e-10)

    def test_window_correction_is_a_boundary_term(self):
        # n * limit - pair(n) comes from the two window ends, so it settles
        # to a constant as n grows instead of growing with n
        corrections = []
        for n in (20.0, 500.0, 5000.0):
            params = ModelParams(0.25, 0.2, 0.2, n)
            corrections.append(n * pair_spatial_limit_quad(params) - window_pair_spatial_quad(params, n))
        assert corrections[1] == pytest.approx(corrections[0], rel=1e-2)
        assert corrections[2] == pytest.approx(corrections[1], rel=1e-6)

    def test_silent_at_tiny_exponents(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gamma, gamma_prime in ((1e-300, 0.2), (0.2, 1e-300)):
                params = ModelParams(beta=0.25, gamma=gamma, gamma_prime=gamma_prime, n=20.0)
                assert window_pair_spatial_quad(params, 20.0) > 0.0

    def test_rejects_divergent_power(self):
        params = ModelParams(beta=0.25, gamma=0.2, gamma_prime=0.4, n=20.0)
        with pytest.raises(ValueError):
            window_pair_spatial_quad(params, 20.0, power=2.5)


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

    def test_second_moment_near_half(self):
        # oracle_variance needs the second moment up to gamma -> 1/2, where
        # most of the mass of u^-2gamma lies below the smallest double
        params = ModelParams(beta=0.25, gamma=0.499, gamma_prime=0.2, n=100.0)
        exact = params.c_tilde**2 / (1.0 - 2.0 * params.gamma)
        assert spatial_moment_quad(params, 2.0) == pytest.approx(exact, rel=1e-12)

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
