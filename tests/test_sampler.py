"""Exactness of the vertex, interaction, and limit-point samplers."""

import dataclasses

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sp_stats

from drchm.model import ModelParams, RegimeError, TruncationError
from drchm.sampler import (
    SamplerConfig,
    VertexSample,
    limit_jump_threshold,
    missed_edge_bound,
    sample_interactions,
    sample_limit_band,
    sample_limit_points,
    sample_vertices,
    weight_bands,
)
from drchm.rng import stream_generator
from drchm.stats import hill_tail_index


def _sample_vertices_burn_in(
    params: ModelParams,
    cfg: SamplerConfig,
    stream: int = 0,
    start: float = -20.0,
) -> VertexSample:
    """Forward simulation from a deep negative start time; test oracle.

    Births are Poisson on [start, 1] x [0, n]; the sample keeps the vertices
    alive at some point of [0, 1].  With start << 0 this approximates the
    stationary law that sample_vertices produces exactly.
    """
    rng = stream_generator(cfg.master_seed, stream)
    total = rng.poisson(params.n * (1.0 - start))
    b = rng.uniform(start, 1.0, size=total)
    l = rng.exponential(size=total)
    keep = b + l >= 0.0
    x = rng.uniform(0.0, params.n, size=total)
    u = 1.0 - rng.random(size=total)
    return VertexSample(x=x[keep], u=u[keep], b=b[keep], l=l[keep])


class TestSamplerConfig:
    def test_defaults_valid(self):
        SamplerConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(w_min=0.0),
            dict(w_min=1.0),
            dict(missed_edge_tolerance=0.0),
            dict(w_min=float("nan")),
            dict(master_seed=-1),
            dict(missed_edge_tolerance=float("inf")),
            dict(missed_edge_tolerance=True),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


class TestVertexSampler:
    def test_empty_window(self, scfg):
        p = ModelParams(0.25, 0.2, 0.2, 0.0)
        assert len(sample_vertices(p, scfg, 0)) == 0

    def test_reproducible(self, params_g, scfg):
        a = sample_vertices(params_g, scfg, 4)
        b = sample_vertices(params_g, scfg, 4)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.l, b.l)

    def test_horizon_relevance(self, params_g, scfg):
        vs = sample_vertices(params_g, scfg, 0)
        assert np.all(vs.b <= 1.0)
        assert np.all(vs.death >= 0.0)
        assert np.all((0.0 <= vs.x) & (vs.x <= params_g.n))
        assert np.all((0.0 < vs.u) & (vs.u <= 1.0))

    def test_count_law(self, params_g, scfg):
        # total count is a sum of two Poisson(n): mean and variance 2n
        counts = np.array(
            [len(sample_vertices(params_g, scfg, s)) for s in range(1000)]
        )
        se_mean = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - 2 * params_g.n) <= 4 * se_mean

    def test_alive_at_zero_memorylessness(self, params_g, scfg):
        ages, residuals = [], []
        for s in range(200):
            vs = sample_vertices(params_g, scfg, s)
            alive = vs.b < 0
            ages.append(-vs.b[alive])
            residuals.append(vs.l[alive] + vs.b[alive])
        age = np.concatenate(ages)
        res = np.concatenate(residuals)
        m = len(age)
        assert abs(age.mean() - 1.0) <= 4 * age.std(ddof=1) / np.sqrt(m)
        assert abs(res.mean() - 1.0) <= 4 * res.std(ddof=1) / np.sqrt(m)
        assert abs(np.corrcoef(age, res)[0, 1]) <= 4 / np.sqrt(m)

    def test_matches_burn_in_law(self, scfg):
        # two-sample KS on birth/lifetime/age marginals below the 1%
        # critical value at ~10^4 samples per side
        p = ModelParams(0.25, 0.2, 0.2, 200.0)
        exact, burn = [], []
        for s in range(25):
            exact.append(sample_vertices(p, scfg, s))
            burn.append(_sample_vertices_burn_in(p, scfg, 100 + s))
        for attr in ("b", "l"):
            a = np.concatenate([getattr(v, attr) for v in exact])
            b = np.concatenate([getattr(v, attr) for v in burn])
            stat = sp_stats.ks_2samp(a, b, method="asymp")
            crit = 1.628 * np.sqrt((len(a) + len(b)) / (len(a) * len(b)))
            assert stat.statistic < crit, f"{attr} marginal KS {stat.statistic}"


class TestWeightBands:
    def test_cover_and_ratio(self):
        cfg = SamplerConfig(w_min=1e-3)
        bands = weight_bands(cfg)
        assert bands[0][0] == 1.0
        assert bands[-1][1] == cfg.w_min
        for (hi, lo), (hi2, _) in zip(bands[:-1], bands[1:]):
            assert lo == hi2
            assert lo == pytest.approx(hi * 0.5)


class TestMissedEdgeBound:
    def test_single_vertex_closed_form(self, params_g):
        # one vertex with u = 0.5 and alive span 0.5 on the horizon
        vs = VertexSample(
            x=np.array([1.0]),
            u=np.array([0.5]),
            b=np.array([0.0]),
            l=np.array([0.5]),
        )
        w_min = 1e-3
        p = params_g
        expected = (
            2.0
            * p.beta
            / (1.0 - p.gamma_prime)
            * 0.5 ** (-p.gamma)
            * w_min ** (1.0 - p.gamma_prime)
            * 0.5
        )
        assert missed_edge_bound(p, vs, w_min) == pytest.approx(expected)
        # quadrature twin: 2 beta u^-gamma int_0^wmin w^-gamma' dw * span
        quad = (
            2.0
            * p.beta
            * 0.5 ** (-p.gamma)
            * integrate.quad(
                lambda w: w ** (-p.gamma_prime),
                1e-300,
                w_min,
                epsabs=1e-13,
                epsrel=1e-8,
                limit=200,
            )[0]
            * 0.5
        )
        assert missed_edge_bound(p, vs, w_min) == pytest.approx(quad, rel=1e-6)

    def test_monotone_in_w_min(self, params_g, scfg):
        vs = sample_vertices(params_g, scfg, 0)
        bounds = [missed_edge_bound(params_g, vs, w) for w in (1e-2, 1e-3, 1e-4)]
        assert bounds[0] > bounds[1] > bounds[2]


class TestInteractionSampler:
    def test_truncation_error(self, params_g, scfg):
        vs = sample_vertices(params_g, scfg, 0)
        tight = dataclasses.replace(scfg, missed_edge_tolerance=1e-12)
        with pytest.raises(TruncationError):
            sample_interactions(params_g, tight, vs, 0)

    def test_weights_respect_cutoff(self, params_g, scfg):
        vs = sample_vertices(params_g, scfg, 0)
        out = sample_interactions(params_g, scfg, vs, 0)
        assert np.all(out.w >= scfg.w_min)
        assert np.all(out.w <= 1.0)
        assert np.all((vs.b.min() <= out.r) & (out.r <= 1.0))
        assert out.missed_edge_bound <= scfg.missed_edge_tolerance

    @pytest.mark.parametrize("regime", ["gaussian", "stable"])
    def test_band_layout(self, params_g, params_s, regime):
        # Interactions arrive band after band: band_counts partitions them
        # in order, and band k's weights lie between its edges.
        p = params_g if regime == "gaussian" else params_s
        cfg = SamplerConfig(master_seed=3, w_min=1e-8)
        bands = weight_bands(cfg)
        for s in range(5):
            out = sample_interactions(p, cfg, sample_vertices(p, cfg, s), s)
            assert out.band_counts.sum() == len(out)
            assert len(out.band_counts) == len(bands)
            np.testing.assert_array_equal(out.band_w_lo, [lo for _, lo in bands])
            ends = np.cumsum(out.band_counts)
            for (w_hi, w_lo), end, count in zip(bands, ends, out.band_counts):
                w = out.w[end - count : end]
                assert np.all((w_lo <= w) & (w <= w_hi))

    def test_empty_vertices_give_empty(self, scfg):
        p = ModelParams(0.25, 0.2, 0.2, 0.0)
        vs = sample_vertices(p, scfg, 0)
        assert len(sample_interactions(p, scfg, vs, 0)) == 0

    def test_every_band_empty(self, scfg):
        # One vertex and Poisson means near 1e-12: every band draws 0, and
        # the empty join keeps the float64 layout of a sample that drew.
        p = ModelParams(1e-12, 0.2, 0.2, 1e-12)
        vs = VertexSample(x=np.zeros(1), u=np.ones(1), b=np.array([0.5]), l=np.ones(1))
        out = sample_interactions(p, scfg, vs, 0)
        bands = weight_bands(scfg)
        assert len(out) == 0
        for a in (out.z, out.w, out.r):
            assert a.dtype == np.float64 and a.shape == (0,)
        np.testing.assert_array_equal(out.band_counts, np.zeros(len(bands)))
        assert out.band_counts.dtype.kind == "i"
        np.testing.assert_array_equal(out.band_w_lo, [lo for _, lo in bands])

    def test_band_zero_count_law(self, scfg):
        # band 0 count ~ Poisson((n + 2 M0) (w0 - w1) span)
        p = ModelParams(0.25, 0.2, 0.2, 10.0)
        counts, means = [], []
        for s in range(300):
            vs = sample_vertices(p, scfg, s)
            if len(vs) == 0:
                continue
            out = sample_interactions(p, scfg, vs, s)
            w_hi, w_lo = weight_bands(scfg)[0]
            margin = p.beta * vs.u.min() ** (-p.gamma) * w_lo ** (-p.gamma_prime)
            means.append((p.n + 2 * margin) * (w_hi - w_lo) * (1.0 - vs.b.min()))
            counts.append(int(out.band_counts[0]))
        counts = np.array(counts, dtype=float)
        delta = counts - np.array(means)
        se = delta.std(ddof=1) / np.sqrt(len(delta))
        assert abs(delta.mean()) <= 4 * se

    def test_completeness_as_w_min_shrinks(self, scfg):
        # mean edge-count difference between cutoffs is below the bound
        from drchm.paths import build_edges, edge_count_at

        p = ModelParams(0.25, 0.2, 0.2, 50.0)
        diffs, bounds = [], []
        coarse = dataclasses.replace(scfg, w_min=1e-2, missed_edge_tolerance=20.0)
        fine = dataclasses.replace(scfg, w_min=5e-3, missed_edge_tolerance=20.0)
        for s in range(200):
            vs = sample_vertices(p, scfg, s)
            e_coarse = build_edges(p, vs, sample_interactions(p, coarse, vs, s))
            e_fine = build_edges(p, vs, sample_interactions(p, fine, vs, s))
            diffs.append(
                float(edge_count_at(e_fine, 0.5) - edge_count_at(e_coarse, 0.5))
            )
            bounds.append(missed_edge_bound(p, vs, coarse.w_min))
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) <= np.mean(bounds) + 4 * se


class TestLimitPoints:
    def test_regime_guard(self, params_g, scfg):
        with pytest.raises(RegimeError):
            sample_limit_points(params_g, 0.1, scfg, 0)

    def test_epsilon_validation(self, params_s, scfg):
        with pytest.raises(ValueError):
            sample_limit_points(params_s, 0.0, scfg, 0)
        with pytest.raises(ValueError):
            sample_limit_points(params_s, 1.5, scfg, 0)

    def test_threshold_at_eps_one(self, scfg):
        p = ModelParams(0.25, 0.7, 0.2, 1.0)
        assert limit_jump_threshold(p, 1.0) == pytest.approx(0.625)
        points = sample_limit_points(p, 1.0, scfg, 0)
        assert np.all(points.j >= 0.625)

    def test_count_concentration(self, params_s, scfg):
        # total count ~ Poisson(2 / eps) over the two temporal components
        eps = 0.1
        counts = np.array(
            [
                len(sample_limit_points(params_s, eps, scfg, s))
                for s in range(1000)
            ],
            dtype=float,
        )
        se = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - 2.0 / eps) <= 4 * se

    def test_jump_tail_is_pareto(self, params_s, scfg):
        jumps = []
        s = 0
        while len(jumps) < 30_000:
            jumps.extend(sample_limit_points(params_s, 0.05, scfg, s).j)
            s += 1
        alpha, se = hill_tail_index(np.array(jumps), k=1000)
        assert abs(alpha - 1.0 / params_s.gamma) <= 4 * se

    def test_band_validation(self, params_s, scfg):
        with pytest.raises(ValueError):
            sample_limit_band(params_s, 1.0, 0.5, scfg)
        with pytest.raises(ValueError):
            sample_limit_band(params_s, 0.0, 1.0, scfg)

    def test_band_superposition_matches_tail(self, params_s, scfg):
        # splitting the tail at an interior threshold preserves the law of
        # the total count
        thr_lo = limit_jump_threshold(params_s, 0.05)
        thr_mid = limit_jump_threshold(params_s, 0.1)
        counts = []
        for s in range(800):
            low = sample_limit_band(params_s, thr_lo, thr_mid, scfg, s, tag=1)
            high = sample_limit_band(params_s, thr_mid, np.inf, scfg, s, tag=2)
            assert np.all((thr_lo <= low.j) & (low.j < thr_mid))
            assert np.all(high.j >= thr_mid)
            counts.append(len(low) + len(high))
        counts = np.array(counts, dtype=float)
        se = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - 2.0 / 0.05) <= 4 * se
