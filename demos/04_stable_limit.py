"""Explore the heavy-tailed limit: jump tails, truncated paths, refinement.

In the regime gamma > 1/2 the normalized edge count converges to a
non-Levy stable-like process built from a Poisson process of jumps with a
Pareto(1/gamma) intensity.  This script estimates the jump tail index,
checks the truncated-limit mean and a band variance against closed forms,
and shows that coupled refinements of the truncation level are Cauchy in
sup norm.

Run:  python demos/04_stable_limit.py
"""

import numpy as np

from drchm import ModelParams, SamplerConfig, sample_limit_points, stable_mean
from drchm.limits import epsilon_refinement_study, stable_band_marginals, stable_marginals
from drchm.oracles import stable_band_variance
from drchm.stats import hill_tail_index

params = ModelParams(beta=0.25, gamma=0.7, gamma_prime=0.2, n=1.0)
cfg = SamplerConfig(master_seed=17)

parts = []
stream = 0
while sum(map(len, parts)) < 50_000:
    parts.append(sample_limit_points(params, 0.02, cfg, stream).j)
    stream += 1
jumps = np.concatenate(parts)
alpha, se = hill_tail_index(jumps, k=1000)
print(f"Hill tail index of {len(jumps)} sampled jumps: {alpha:.3f} +- {se:.3f} "
      f"(target 1/gamma = {1 / params.gamma:.4f})")

eps = 0.01
vals = stable_marginals(params, eps, 0.5, 10_000, cfg)
se = vals.std(ddof=1) / np.sqrt(len(vals))
print(f"truncated-limit mean at t = 0.5, eps = {eps}: {vals.mean():.3f} +- {se:.3f} "
      f"(closed form {stable_mean(params, eps):.4f})")

band = stable_band_marginals(params, 0.01, 0.1, 0.5, 20_000, cfg)
print(f"band variance, jumps in [0.01, 0.1): {band.var(ddof=1):.4f} "
      f"(closed form {stable_band_variance(params, 0.1, 0.01):.4f})")

print()
report = epsilon_refinement_study(params, (0.1, 0.05, 0.025, 0.0125), 500, cfg)
print("coupled sup-norm distances between consecutive truncation levels:")
for (hi, lo), med in zip(
    zip(report.eps_sequence[:-1], report.eps_sequence[1:]), report.medians
):
    print(f"  eps {hi} -> {lo}: median {med:.4f}")
print(f"strictly decreasing: {report.medians_strictly_decreasing}")
