"""Self-tests of the estimators against known distributions."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

import drchm
from drchm.stats import (
    MomentSummary,
    cross_covariance,
    hill_tail_index,
    ks_distance,
    normality_statistic,
    omnibus_threshold,
)


class TestMomentSummary:
    def test_matches_direct_formulas(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500) * 2.0 + 1.0
        s = MomentSummary.from_samples(x)
        assert s.count == 500
        assert s.mean == pytest.approx(x.mean())
        assert s.variance == pytest.approx(x.var(ddof=1))
        assert s.mean_se == pytest.approx(x.std(ddof=1) / math.sqrt(500))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            MomentSummary.from_samples([1.0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(size=400)
        a = MomentSummary.from_samples(x)
        b = MomentSummary.from_samples(x[::-1])
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.variance_se == pytest.approx(b.variance_se, rel=1e-12)

    def test_se_scaling(self):
        # SEs shrink like 1/sqrt(count): log-log slope in [-0.55, -0.45]
        rng = np.random.default_rng(2)
        counts = [1_000, 10_000, 100_000]
        ses = [
            MomentSummary.from_samples(rng.standard_normal(c)).variance_se
            for c in counts
        ]
        slope = np.polyfit(np.log(counts), np.log(ses), 1)[0]
        assert -0.55 <= slope <= -0.45


class TestCrossCovariance:
    def test_identical_vectors(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
        cov, _ = cross_covariance(x, x)
        assert cov == pytest.approx(x.var(ddof=1))

    def test_independent_normals(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 10_000))
        cov, se = cross_covariance(a, b)
        assert abs(cov) < 4 * se

    def test_shared_component(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(10_000)
        b = a + rng.standard_normal(10_000)
        cov, se = cross_covariance(a, b)
        assert abs(cov - a.var(ddof=1)) < 4 * se

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_covariance([1.0, 2.0], [1.0, 2.0, 3.0])


class TestNormality:
    def test_normal_does_not_reject(self):
        rng = np.random.default_rng(5)
        rejections = 0
        thr = omnibus_threshold()
        for _ in range(20):
            *_, omnibus = normality_statistic(rng.standard_normal(10_000))
            rejections += omnibus > thr
        assert rejections <= 1

    def test_exponential_rejects(self):
        rng = np.random.default_rng(6)
        thr = omnibus_threshold()
        for _ in range(20):
            *_, omnibus = normality_statistic(rng.exponential(size=10_000))
            assert omnibus > thr

    @pytest.mark.parametrize("value", [1.0, 0.1, 1.1])
    def test_constant_rejected_as_input(self, value):
        # The mean of 100 copies of 0.1 or 1.1 rounds away from the value, so
        # the centred moments are rounding noise, not zero.
        with pytest.raises(ValueError):
            normality_statistic(np.full(100, value))

    def test_needs_100_samples(self):
        with pytest.raises(ValueError):
            normality_statistic(np.random.default_rng(0).standard_normal(50))

    def test_threshold_value(self):
        assert omnibus_threshold(0.999) == pytest.approx(13.8155, abs=1e-3)

    @pytest.mark.parametrize("level", [1e-10, 0.5, 0.9, 0.95, 0.99, 0.999, 0.9999])
    def test_threshold_equals_scipy_chi2(self, level):
        assert omnibus_threshold(level) == sp_stats.chi2.ppf(level, 2)


class TestHill:
    def test_exact_pareto(self):
        rng = np.random.default_rng(7)
        x = rng.random(100_000) ** (-1.0 / 2.0)  # Pareto alpha = 2
        alpha, se = hill_tail_index(x, k=500)
        assert abs(alpha - 2.0) <= 4 * se

    def test_default_k(self):
        rng = np.random.default_rng(8)
        x = rng.random(10_000) ** (-1.0)
        alpha, se = hill_tail_index(x)
        assert abs(alpha - 1.0) <= 4 * se

    def test_all_equal_sentinel(self):
        alpha, se = hill_tail_index(np.ones(1000))
        assert math.isinf(alpha) and math.isinf(se)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hill_tail_index(np.array([-1.0, 2.0, 3.0]))

    def test_k_range(self):
        x = np.arange(1.0, 101.0)
        with pytest.raises(ValueError):
            hill_tail_index(x, k=5)
        with pytest.raises(ValueError):
            hill_tail_index(x, k=60)


class TestKS:
    def test_identical(self):
        x = np.random.default_rng(9).standard_normal(1000)
        assert ks_distance(x, x) == 0.0

    def test_shifted_uniforms(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(0, 1, 50_000)
        b = rng.uniform(0.5, 1.5, 50_000)
        assert ks_distance(a, b) == pytest.approx(0.5, abs=0.02)

    def test_single_perturbation(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(1000)
        b = a.copy()
        b[0] += 100.0
        assert ks_distance(a, b) <= 1.0 / 1000 + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ks_distance([0.0, bad, 1.0], [0.5, 2.0])
        with pytest.raises(ValueError, match="finite"):
            ks_distance([0.5, 2.0], [bad])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        sizes=st.tuples(st.integers(1, 300), st.integers(1, 300)),
        tied=st.booleans(),
        scale=st.sampled_from([1e-6, 1e-3, 1.0, 7.5, 1e4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_scipy_ks_2samp(self, sizes, tied, scale, seed):
        # bit-identical to scipy's statistic, in either argument order;
        # rounding to a few integers makes ties within and across samples
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(sizes[0])
        b = rng.standard_normal(sizes[1]) * scale
        if tied:
            a, b = np.round(a * 2), np.round(b * 2)
        for x, y in ((a, b), (b, a)):
            # scipy's p-value, unused here, divides by zero on tiny samples
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = sp_stats.ks_2samp(x, y, method="asymp").statistic
            assert ks_distance(x, y) == expected


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs more than half of a cold start; the package must not
    # load it, directly or through another module, at import or when the two
    # statistics that once used it run
    code = (
        "import sys, drchm, drchm.cli; from drchm import stats; "
        "stats.ks_distance([0.0, 1.0], [0.5]); stats.omnibus_threshold(); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(drchm.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"
