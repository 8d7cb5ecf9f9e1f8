"""End-to-end acceptance criteria.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(visible under pytest -s / -rA), and asserts it.  Heavy replicate
ensembles are session-scoped fixtures shared between criteria.  All seeds
are fixed, so every statistical verdict here is reproducible bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from drchm.experiments import edge_count_ensemble, normalization
from drchm.limits import (
    epsilon_refinement_study,
    stable_band_marginals,
    stable_marginals,
)
from drchm.model import ModelParams
from drchm.oracles import (
    adjudicated_constants,
    mean_edge_count,
    oracle_covariance,
    oracle_variance,
    printed_covariance,
    printed_variance_limit,
    stable_band_variance,
    stable_mean,
)
from drchm.paths import (
    build_edges,
    build_edges_brute_force,
    edge_count_path,
    mark_split_paths,
    pm_edge_count_paths,
)
from drchm.sampler import (
    SamplerConfig,
    sample_interactions,
    sample_limit_points,
    sample_vertices,
)
from drchm.stats import (
    cross_covariance,
    hill_tail_index,
    ks_distance,
    normality_statistic,
    omnibus_threshold,
)

G = ModelParams(beta=0.25, gamma=0.2, gamma_prime=0.2, n=500.0)
S = ModelParams(beta=0.25, gamma=0.7, gamma_prime=0.2, n=500.0)
SEED = 20240824


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")


@pytest.fixture(scope="session")
def gaussian_ensemble():
    """G at n = 500, 2000 replicates, marginals at t in {0.3, 0.5, 0.8}."""
    cfg = SamplerConfig(master_seed=SEED)
    ens = edge_count_ensemble(G, cfg, (0.3, 0.5, 0.8), 2000, workers=4)
    center, scale = normalization(G)
    return (ens["counts"] - center) / scale


@pytest.fixture(scope="session")
def stable_ensemble():
    """S at n = 500, 5000 replicates, marginals at t in {0.5, 1.0}."""
    cfg = SamplerConfig(master_seed=SEED, w_min=1e-8)
    return edge_count_ensemble(S, cfg, (0.5, 1.0), 5000, workers=4)


def test_criterion_1_exact_identities():
    """Pathwise identities and brute-force pairing on 50 small instances."""
    cfg = SamplerConfig(master_seed=SEED, w_min=1e-3, missed_edge_tolerance=50.0)
    worst_pm = worst_split = 0.0
    checked = 0
    for trial in range(50):
        gamma = 0.2 if trial % 2 == 0 else 0.7
        p = ModelParams(0.25, gamma, 0.2, 3.0)
        vs = sample_vertices(p, cfg, trial)
        inter = sample_interactions(p, cfg, vs, trial)
        assert len(vs) + len(inter) <= 200, "instance exceeds 200 points"
        edges = build_edges(p, vs, inter)
        brute = build_edges_brute_force(p, vs, inter)
        key = lambda e: sorted(zip(e.vertex_index, e.interaction_index))
        assert key(edges) == key(brute), f"pairing mismatch in trial {trial}"
        path = edge_count_path(edges)
        plus, minus = pm_edge_count_paths(edges)
        low, high = mark_split_paths(edges, vs, 0.3)
        grid = np.unique(
            np.concatenate(
                [path.times, plus.times, minus.times, low.times, high.times, [1.0]]
            )
        )
        worst_pm = max(worst_pm, float(np.max(np.abs(plus(grid) - minus(grid) - path(grid)))))
        worst_split = max(worst_split, float(np.max(np.abs(low(grid) + high(grid) - path(grid)))))
        checked += 1
    passed = worst_pm == 0.0 and worst_split == 0.0 and checked == 50
    _report(
        "1 (exact identities)",
        passed,
        f"{checked} instances; max |S - (S+ - S-)| = {worst_pm}, "
        f"max |S - (low+high)| = {worst_split}; pairing matches brute force",
    )
    assert passed


def test_criterion_2_mean():
    """Mean edge count at G with n = 100 over 500 replicates."""
    p = dataclasses.replace(G, n=100.0)
    cfg = SamplerConfig(master_seed=SEED)
    ens = edge_count_ensemble(p, cfg, (0.25, 0.5, 0.75), 500, workers=4)
    target = mean_edge_count(p)
    assert target == pytest.approx(78.125)
    details = []
    passed = True
    for i, t in enumerate((0.25, 0.5, 0.75)):
        x = ens["counts"][:, i]
        se = x.std(ddof=1) / np.sqrt(len(x))
        z = (x.mean() - target) / se
        passed &= abs(z) <= 4.0
        details.append(f"t={t}: {x.mean():.2f} (z={z:+.2f})")
    _report("2 (mean)", passed, f"target 78.125; " + ", ".join(details))
    assert passed


def test_criterion_3_variance_covariance(gaussian_ensemble):
    """Var and Cov of the normalized edge count against quadrature oracles."""
    normed = gaussian_ensemble
    var, var_se = cross_covariance(normed[:, 1], normed[:, 1])
    var_oracle = oracle_variance(G, 0.5) / G.n
    var_ok = abs(var - var_oracle) <= 4.0 * var_se
    details = [f"Var(0.5) {var:.4f} vs {var_oracle:.4f} (z={(var - var_oracle) / var_se:+.2f})"]
    cov_ok = True
    for j, h in ((0, 0.0), (1, 0.2), (2, 0.5)):
        cov, se = cross_covariance(normed[:, 0], normed[:, j])
        target = oracle_covariance(G, 0.3, 0.3 + h).oracle
        z = (cov - target) / se
        cov_ok &= abs(z) <= 4.0
        details.append(f"Cov(h={h}) {cov:.4f} vs {target:.4f} (z={z:+.2f})")
    # adjudication: the oracle matches neither printed closed form, only the
    # corrected constant set
    lag0 = oracle_covariance(G, 0.3, 0.3).oracle
    forms = {
        "printed covariance form": printed_covariance(G, 0.0),
        "printed variance form": printed_variance_limit(G),
        "adjudicated form": float(adjudicated_constants(G).covariance(0.0)),
    }
    matches = [name for name, v in forms.items() if abs(v - lag0) <= 1e-6]
    adjudication_ok = matches == ["adjudicated form"]
    details.append(f"oracle lag-0 = {lag0:.6f} matches: {matches}")
    passed = var_ok and cov_ok and adjudication_ok
    _report("3 (variance/covariance)", passed, "; ".join(details))
    assert passed


def test_criterion_4_gaussianity(gaussian_ensemble, stable_ensemble):
    """Normality omnibus: no rejection at G, rejection at gamma = 0.7."""
    threshold = omnibus_threshold(0.999)
    *_, omnibus_g = normality_statistic(gaussian_ensemble[:, 1])
    center, scale = normalization(S)
    neg = (stable_ensemble["counts"][:2000, 0] - center) / scale
    *_, omnibus_s = normality_statistic(neg)
    passed = omnibus_g <= threshold < omnibus_s
    _report(
        "4 (gaussianity)",
        passed,
        f"omnibus G = {omnibus_g:.2f} <= {threshold:.2f} < "
        f"{omnibus_s:.1f} = omnibus at gamma=0.7",
    )
    assert passed


def test_criterion_5_heavy_tail_index(stable_ensemble):
    """Hill index of sampled jumps and of edge-count exceedances."""
    cfg = SamplerConfig(master_seed=SEED)
    jumps = []
    stream = 0
    while len(jumps) < 100_000:
        jumps.extend(sample_limit_points(S, 0.01, cfg, stream).j)
        stream += 1
    alpha_j, se_j = hill_tail_index(np.array(jumps[:100_000]))
    target = 1.0 / S.gamma
    jumps_ok = abs(alpha_j - target) <= 4.0 * se_j

    exceed = stable_ensemble["counts"][:, 1] - mean_edge_count(S)
    exceed = exceed[exceed > 0]
    k = min(200, len(exceed) // 4)
    alpha_s, _ = hill_tail_index(exceed, k)
    edge_ok = abs(alpha_s - target) <= 0.2
    passed = jumps_ok and edge_ok
    _report(
        "5 (heavy-tail index)",
        passed,
        f"jump Hill {alpha_j:.4f} +- {se_j:.4f} vs {target:.4f}; "
        f"S_n(1) exceedance Hill {alpha_s:.4f} (|err| = {abs(alpha_s - target):.3f} <= 0.2, "
        f"k = {k} of {len(exceed)})",
    )
    assert passed


def test_criterion_6_stable_mean_and_band_variance():
    """Truncated-limit mean and jump-band variance against closed forms."""
    cfg = SamplerConfig(master_seed=SEED)
    vals = stable_marginals(S, 0.01, 0.5, 10_000, cfg)
    target_mean = stable_mean(S, 0.01)
    assert target_mean == pytest.approx(8.293899386531193)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    z_mean = (vals.mean() - target_mean) / se
    band = stable_band_marginals(S, 0.01, 0.1, 0.5, 20_000, cfg, stream=1)
    target_var = stable_band_variance(S, 0.1, 0.01)
    assert target_var == pytest.approx(0.5015249787177473)
    var, var_se = cross_covariance(band, band)
    z_var = (var - target_var) / var_se
    passed = abs(z_mean) <= 4.0 and abs(z_var) <= 4.0
    _report(
        "6 (stable mean / band variance)",
        passed,
        f"mean {vals.mean():.4f} vs {target_mean:.4f} (z={z_mean:+.2f}); "
        f"band variance {var:.4f} vs {target_var:.4f} (z={z_var:+.2f})",
    )
    assert passed


def test_criterion_7_distributional_convergence():
    """KS to the truncated limit shrinks with n; high-mark sup norm shrinks."""
    cfg = SamplerConfig(master_seed=2024, w_min=1e-8)
    t, eps = 0.5, 0.005
    wins = 0
    sups = {200: [], 2000: []}
    for batch in range(10):
        lim = stable_marginals(
            S, eps, t, 20_000, cfg, stream=50_000_000 + batch
        ) - stable_mean(S, eps)
        ks = {}
        for n in (200, 2000):
            p = dataclasses.replace(S, n=float(n))
            ens = edge_count_ensemble(
                p,
                cfg,
                (t,),
                2000,
                u_threshold=float(n) ** (-2.0 / 3.0),
                workers=4,
                stream_offset=batch * 100_000 + (0 if n == 200 else 10_000),
            )
            center, scale = normalization(p)
            ks[n] = ks_distance((ens["counts"][:, 0] - center) / scale, lim)
            sups[n].extend(ens["high_sup"] / scale)
        wins += ks[200] > ks[2000]
    sup_medians = {n: float(np.median(v)) for n, v in sups.items()}
    sup_ok = sup_medians[2000] < sup_medians[200]
    passed = wins >= 8 and sup_ok
    _report(
        "7 (distributional convergence)",
        passed,
        f"KS(n=200) > KS(n=2000) in {wins}/10 batches (need >= 8); "
        f"high-mark sup-norm median {sup_medians[200]:.4f} -> {sup_medians[2000]:.4f}",
    )
    assert passed


def test_criterion_8_lemma_catalog(catalog_records):
    """All equality cases at rel. 1e-6; zero bound violations, 20 draws."""
    eq = [r for r in catalog_records if r.kind == "equality"]
    bd = [r for r in catalog_records if r.kind == "bound"]
    max_err = max(r.max_rel_err for r in eq)
    violations = sum(r.bound_violations for r in bd)
    enough = all(r.draws >= 20 for r in catalog_records)
    passed = max_err <= 1e-6 and violations == 0 and enough
    _report(
        "8 (lemma catalog)",
        passed,
        f"{len(eq)} equalities (max rel err {max_err:.2e}), "
        f"{len(bd)} bounds ({violations} violations)",
    )
    assert passed


def test_criterion_9_epsilon_refinement():
    """Coupled sup-norm distances are Cauchy: strictly decreasing medians."""
    cfg = SamplerConfig(master_seed=SEED)
    report = epsilon_refinement_study(
        S, (0.1, 0.05, 0.025, 0.0125), 1000, cfg
    )
    medians = [float(m) for m in report.medians]
    passed = report.medians_strictly_decreasing
    _report(
        "9 (epsilon refinement)",
        passed,
        "medians " + " > ".join(f"{m:.4f}" for m in medians),
    )
    assert passed
