"""Estimators and test statistics for the Monte Carlo experiments.

All estimators are pure functions of their sample arrays (permutation
invariant) and report Monte Carlo standard errors, so experiment acceptance
bands can be stated as multiples of the SE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _jackknife_se(values: np.ndarray) -> float:
    """Standard error from delete-one estimates."""
    n = len(values)
    center = values.mean()
    return float(np.sqrt((n - 1) / n * np.sum((values - center) ** 2)))


def mean_variance(samples) -> dict:
    """Count, mean and unbiased variance with their standard errors.

    The mean SE is sqrt(variance / count), the variance SE the delete-one
    jackknife.  Below two samples the variance is NaN and both SEs are
    infinite; with two samples the variance SE is infinite.
    """
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n < 2:
        return {
            "count": n,
            "mean": float(x.mean()) if n else float("nan"),
            "mean_se": float("inf"),
            "variance": float("nan"),
            "variance_se": float("inf"),
        }
    var = float(x.var(ddof=1))
    var_se = float("inf")
    if n > 2:
        # delete-one variances in closed form
        dx = x - x.mean()
        var_i = (float(np.sum(dx**2)) - dx**2 * n / (n - 1)) / (n - 2)
        var_se = _jackknife_se(var_i)
    return {
        "count": n,
        "mean": float(x.mean()),
        "mean_se": float(np.sqrt(var / n)),
        "variance": var,
        "variance_se": var_se,
    }


@dataclass
class MomentSummary:
    """Count, mean and variance of a replicate ensemble with their standard
    errors, as computed by mean_variance; needs at least two samples."""

    count: int
    mean: float
    variance: float
    mean_se: float
    variance_se: float

    @classmethod
    def from_samples(cls, samples) -> "MomentSummary":
        mv = mean_variance(samples)
        if mv["count"] < 2:
            raise ValueError(f"need at least 2 samples, got {mv['count']}")
        return cls(**mv)


def cross_covariance(samples_a, samples_b) -> tuple[float, float]:
    """Unbiased sample covariance of paired replicates with jackknife SE."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if len(a) != len(b):
        raise ValueError(
            f"paired samples must have equal length, got {len(a)} and {len(b)}"
        )
    n = len(a)
    if n < 3:
        raise ValueError(f"need at least 3 pairs for a jackknife SE, got {n}")
    da = a - a.mean()
    db = b - b.mean()
    s_ab = float(np.sum(da * db))
    cov = s_ab / (n - 1)
    # delete-one cross sums in closed form
    s_i = s_ab - n * da * db / (n - 1)
    cov_i = s_i / (n - 2)
    return cov, _jackknife_se(cov_i)


def normality_statistic(samples) -> tuple[float, float, float]:
    """Standardized skewness and excess-kurtosis z-scores and their omnibus
    sum of squares (chi-squared with 2 degrees of freedom under normality)."""
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    if x.min() == x.max():
        raise ValueError("samples are constant; normality is undefined")
    dx = x - x.mean()
    m2 = float(np.mean(dx**2))
    skew = float(np.mean(dx**3)) / m2**1.5
    kurt = float(np.mean(dx**4)) / m2**2 - 3.0
    skew_z = skew / math.sqrt(6.0 / n)
    kurt_z = kurt / math.sqrt(24.0 / n)
    return skew_z, kurt_z, skew_z**2 + kurt_z**2


def omnibus_threshold(level: float = 0.999) -> float:
    """Quantile of the chi-squared(2) reference for the omnibus statistic.

    chi-squared(2) is twice a Gamma(1) variable, so the quantile is twice the
    inverse regularized lower incomplete gamma function at shape 1.
    """
    from scipy import special  # on first use: it is most of a cold start

    return float(2.0 * special.gammaincinv(1.0, level))


def hill_tail_index(samples, k: int | None = None) -> tuple[float, float]:
    """Hill estimator of the tail index on the k largest order statistics.

    alpha_hat = k / sum(log(X_(i) / X_(k+1))), SE = alpha_hat / sqrt(k).
    Returns (inf, inf) when the top order statistics are all equal (no tail
    information); callers must treat that as a flag, not an estimate.
    """
    x = np.asarray(samples, dtype=float)
    if np.any(x <= 0):
        raise ValueError("Hill estimation needs strictly positive samples")
    n = len(x)
    if k is None:
        k = math.ceil(math.sqrt(n))
    if not 10 <= k < n / 2:
        raise ValueError(f"need 10 <= k < count/2, got k={k}, count={n}")
    top = np.sort(x)[-(k + 1) :]
    denom = float(np.sum(np.log(top[1:] / top[0])))
    if denom == 0.0:
        return float("inf"), float("inf")
    alpha = k / denom
    return alpha, alpha / math.sqrt(k)


def ks_distance(samples_a, samples_b) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance of the empirical CDFs.

    Both empirical CDFs are evaluated, right-continuously, at every pooled
    sample point, so ties are counted on both sides at once.
    """
    a = np.sort(np.asarray(samples_a, dtype=float))
    b = np.sort(np.asarray(samples_b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be nonempty")
    both = np.concatenate([a, b])
    if not np.isfinite(both).all():
        raise ValueError("samples must be finite")
    d = (
        np.searchsorted(a, both, side="right") / len(a)
        - np.searchsorted(b, both, side="right") / len(b)
    )
    return float(max(np.clip(-d.min(), 0, 1), d.max()))
