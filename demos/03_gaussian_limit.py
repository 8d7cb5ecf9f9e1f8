"""Check the Gaussian limit of the normalized edge count.

Draws a large replicate ensemble in the light-tailed regime, applies the
skewness/kurtosis omnibus normality statistic, and contrasts it with the
heavy-tailed regime where the same statistic rejects decisively.  Also
samples the limiting Gaussian process itself on a grid: an
Ornstein-Uhlenbeck process plus a CAR(2) process with a double root at -1,
K(h) = a e^-h + b (1 + h) e^-h with a = c1 + c2 + c3 and b = c2 from the
adjudicated constants, drawn by its exact Markov recursion.

Run:  python demos/03_gaussian_limit.py
"""

import numpy as np

from drchm import GaussianGrid, ModelParams, SamplerConfig, sample_gaussian_path
from drchm.experiments import edge_count_ensemble, normalization
from drchm.stats import normality_statistic, omnibus_threshold

cfg = SamplerConfig(master_seed=11, w_min=1e-6)
threshold = omnibus_threshold(0.999)
print(f"chi-squared(2) omnibus threshold at 99.9%: {threshold:.3f}")
print()

for gamma, label in ((0.2, "gaussian regime (gamma = 0.2)"), (0.7, "stable regime (gamma = 0.7)")):
    params = ModelParams(beta=0.25, gamma=gamma, gamma_prime=0.2, n=500.0)
    ens = edge_count_ensemble(params, cfg, (0.5,), 1000, workers=4)
    center, scale = normalization(params)
    normed = (ens["counts"][:, 0] - center) / scale
    skew_z, kurt_z, omnibus = normality_statistic(normed)
    verdict = "reject" if omnibus > threshold else "no rejection"
    print(f"{label}: skew_z = {skew_z:+.2f}, kurt_z = {kurt_z:+.2f}, omnibus = {omnibus:.1f} -> {verdict}")

print()
params = ModelParams(beta=0.25, gamma=0.2, gamma_prime=0.2, n=500.0)
grid = GaussianGrid.build(params, np.linspace(0.0, 1.0, 11))
path = sample_gaussian_path(grid, cfg, stream=0)
print("one draw of the limiting Gaussian process on an 11-point grid:")
print("  " + "  ".join(f"{v:+.2f}" for v in path))
