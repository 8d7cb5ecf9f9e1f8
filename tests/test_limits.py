"""Gaussian-grid and truncated-jump-path limit samplers."""

import tracemalloc

import numpy as np
import pytest
from scipy import special

from drchm import limits
from drchm.experiments import _write_grid_csv
from drchm.limits import (
    GaussianGrid,
    StablePath,
    epsilon_refinement_study,
    sample_gaussian_path,
    sample_stable_path,
    stable_band_marginals,
    stable_marginals,
)
from drchm.model import ModelParams, RegimeError
from drchm.oracles import (
    adjudicated_constants,
    stable_band_variance,
    stable_mean,
)
from drchm.rng import stream_generator
from drchm.sampler import (
    LimitPointSample,
    SamplerConfig,
    _alive_at_zero,
    _born_in_horizon,
    _jump_sizes,
    _nu_tail,
    limit_jump_threshold,
    sample_limit_band,
)
from drchm.stats import cross_covariance


def _superpose(first: LimitPointSample, second: LimitPointSample) -> LimitPointSample:
    """The union of two independent point sets, first's points first."""
    return LimitPointSample(
        j=np.concatenate([first.j, second.j]),
        b=np.concatenate([first.b, second.b]),
        l=np.concatenate([first.l, second.l]),
    )


# Gaussian-regime sets: the reference set, gamma near 1/2, gamma' near 1/2.
GAUSSIAN_SETS = [
    ModelParams(beta=0.25, gamma=0.2, gamma_prime=0.2, n=100.0),
    ModelParams(beta=1.0, gamma=0.45, gamma_prime=0.1, n=10.0),
    ModelParams(beta=0.5, gamma=0.1, gamma_prime=0.49, n=10.0),
]


def _adjudicated_K(params, times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    return adjudicated_constants(params).covariance(np.abs(np.subtract.outer(times, times)))


def _exact_covariance(grid: GaussianGrid) -> np.ndarray:
    """M M^T for the linear map M from the (m, 3) normals to the path,
    read off by feeding it the 3m unit vectors."""
    m = len(grid.times)
    M = grid.path(np.eye(3 * m).reshape(3 * m, m, 3)).T
    return M @ M.T


def _random_grid(rng, m: int, tiny_steps: bool) -> np.ndarray:
    """Uniform points on [0, 1], or steps log-uniform in [1e-12, 1e-2]."""
    if not tiny_steps:
        return np.unique(rng.uniform(0.0, 1.0, m))
    steps = 10.0 ** rng.uniform(-12.0, -2.0, m - 1)
    return rng.uniform(0.0, 0.5) + np.concatenate([[0.0], np.cumsum(steps)])


class TestGaussianGrid:
    @pytest.mark.parametrize("params", GAUSSIAN_SETS)
    def test_exact_covariance_is_adjudicated(self, params):
        rng = np.random.default_rng(31)
        for m in (1, 2, 32, 512):
            for tiny_steps in (False, True):
                times = _random_grid(rng, m, tiny_steps)
                K = _adjudicated_K(params, times)
                err = np.abs(_exact_covariance(GaussianGrid.build(params, times)) - K)
                assert err.max() <= 1e-13 * np.abs(K).max()

    def test_q11_equals_scipy_on_every_grid(self, params_g):
        # q11 = P(3, 2h) comes from the numpy series, squared back out of the
        # factor sqrt(c2 q11): within 1e-14 of scipy on all 130 816 steps of
        # the uniform grids of 2-512 points
        c2 = adjudicated_constants(params_g).c2
        value, expected = [], []
        for m in range(2, 513):
            times = np.linspace(0.0, 1.0, m)
            value.append(GaussianGrid.build(params_g, times).innovation[1:, 1, 1] ** 2 / c2)
            expected.append(special.gammainc(3, 2.0 * np.diff(times)))
        np.testing.assert_allclose(np.concatenate(value), np.concatenate(expected), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "times", [[0.0, 5e-324], [0.0, 1e-110], [1e-200, 2e-200, 0.5]]
    )
    def test_steps_below_gamma_underflow(self, params_g, times):
        # The CAR(2) innovation variance underflows to 0 on these steps;
        # nothing may divide by it.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            grid = GaussianGrid.build(params_g, times)
            path = sample_gaussian_path(grid, SamplerConfig(master_seed=1), 0)
        assert np.all(np.isfinite(path))
        K = _adjudicated_K(params_g, times)
        assert np.abs(_exact_covariance(grid) - K).max() <= 1e-13 * K.max()

    @pytest.mark.parametrize(
        "times",
        [
            [], [0.5, 0.5], [0.5, 0.2], [-0.1, 0.5], [0.5, 1.2],
            [0.0, np.nan], [np.nan], [0.2, np.nan, 0.6], [0.5, np.inf],
        ],
    )
    def test_invalid_grids(self, params_g, times):
        with pytest.raises(ValueError):
            GaussianGrid.build(params_g, times)

    def test_grid_cap(self, params_g):
        with pytest.raises(ValueError):
            GaussianGrid.build(params_g, np.linspace(0, 1, 600))

    def test_regime_guard(self, params_s):
        with pytest.raises(RegimeError):
            GaussianGrid.build(params_s, [0.0, 0.5])

    def test_sampler_reproducible(self, params_g):
        grid = GaussianGrid.build(params_g, [0.0, 0.5, 1.0])
        cfg = SamplerConfig(master_seed=3)
        a = sample_gaussian_path(grid, cfg, 7)
        b = sample_gaussian_path(grid, cfg, 7)
        np.testing.assert_array_equal(a, b)

    def test_empirical_covariance(self, params_g):
        grid = GaussianGrid.build(params_g, [0.2, 0.6])
        cfg = SamplerConfig(master_seed=4)
        draws = np.stack(
            [sample_gaussian_path(grid, cfg, s) for s in range(4000)]
        )
        K = _adjudicated_K(params_g, [0.2, 0.6])
        for i in range(2):
            for j in range(2):
                cov, se = cross_covariance(draws[:, i], draws[:, j])
                assert abs(cov - K[i, j]) <= 4 * se


class TestStablePath:
    def test_hand_built_path(self):
        # one jump of size 2 alive on [0.25, 0.75]
        path = StablePath(j=[2.0], b=[0.25], d=[0.75])
        assert path(0.2) == 0.0
        assert path(0.5) == pytest.approx(0.5)
        assert path(0.75) == pytest.approx(1.0)  # closed death time
        assert path.right_limit(0.75) == 0.0
        assert path(0.9) == 0.0
        path.validate_slopes()

    @pytest.mark.parametrize("stream", [45, 58])
    def test_slope_check_tolerates_rounding_on_narrow_intervals(self, params_s, stream):
        # These streams have event intervals 8.6e-9 and 8.1e-8 wide, where the
        # difference quotient loses about 1e-8 to cancellation.
        sample_stable_path(params_s, 0.01, SamplerConfig(master_seed=207), stream)

    def test_slope_check_catches_a_dropped_point(self, params_s):
        class DropsFirstPoint(StablePath):
            def _eval(self, t, closed_death):
                dead = (t > self.d[0]) if closed_death else (t >= self.d[0])
                alive = (self.b[0] <= t) & ~dead
                return super()._eval(t, closed_death) - self.j[0] * (t - self.b[0]) * alive

        points = sample_stable_path(params_s, 0.01, SamplerConfig(master_seed=207), 0).points
        path = DropsFirstPoint.from_points(points)
        with pytest.raises(AssertionError, match="alive jump sum"):
            path.validate_slopes()

    def test_sup_norm_to_constant(self):
        path = StablePath(j=[2.0], b=[0.25], d=[0.75])
        assert path.sup_norm_to_constant(0.0) == pytest.approx(1.0)
        assert path.sup_norm_to_constant(0.4) == pytest.approx(0.6)

    def test_csv_output(self, params_s, tmp_path):
        cfg = SamplerConfig(master_seed=6)
        sample = sample_stable_path(params_s, 0.2, cfg, 0)
        fname = tmp_path / "limit.csv"
        grid = np.linspace(0, 1, 11)
        _write_grid_csv(fname, grid, sample.path(grid))
        data = np.loadtxt(fname, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 0], grid)
        np.testing.assert_allclose(data[:, 1], sample.path(grid))


class TestStableSampling:
    def test_mean(self, params_s):
        cfg = SamplerConfig(master_seed=7)
        eps = 0.05
        vals = stable_marginals(params_s, eps, 0.5, 4000, cfg)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - stable_mean(params_s, eps)) <= 4 * se

    def test_band_variance(self, params_s):
        cfg = SamplerConfig(master_seed=8)
        vals = stable_band_marginals(params_s, 0.01, 0.1, 0.5, 20_000, cfg)
        var = vals.var(ddof=1)
        target = stable_band_variance(params_s, 0.1, 0.01)
        _, se = cross_covariance(vals, vals)
        assert abs(var - target) <= 4 * se

    def test_marginal_matches_path_law(self, params_s):
        # vectorized marginals and per-path evaluation agree in mean
        cfg = SamplerConfig(master_seed=9)
        eps = 0.1
        path_vals = np.array(
            [
                sample_stable_path(params_s, eps, cfg, s).path(0.5)
                for s in range(2000)
            ]
        )
        quick_vals = stable_marginals(params_s, eps, 0.5, 2000, cfg, stream=999)
        pooled_se = np.sqrt(
            path_vals.var(ddof=1) / len(path_vals)
            + quick_vals.var(ddof=1) / len(quick_vals)
        )
        assert abs(path_vals.mean() - quick_vals.mean()) <= 4 * pooled_se


def _marginals_chunk_at_once(params, j_lo, j_hi, t, reps, cfg, stream=0):
    """stable_band_marginals as it was before the point blocks: each chunk
    draws every jump uniform of a component at once and sums the whole
    chunk by one bincount."""
    rng = stream_generator(cfg.master_seed, stream)
    rate = _nu_tail(params, j_lo)
    if np.isfinite(j_hi):
        rate -= _nu_tail(params, j_hi)
    out = np.zeros(reps)
    done = 0
    while done < reps:
        m = min(limits._MARGINAL_CHUNK, reps - done)
        for component in (_alive_at_zero, _born_in_horizon):
            counts, b, d = component(rng, rate, m)
            if component is _born_in_horizon:
                d += b  # lifetimes to death times
            jumps = _jump_sizes(params, j_lo, j_hi, 1.0 - rng.random(size=len(b)))
            contrib = jumps * (t - b) * ((b <= t) & (t <= d))
            rep = np.repeat(np.arange(m), counts)
            out[done : done + m] += np.bincount(rep, weights=contrib, minlength=m)
        done += m
    return out


class TestBlockedMarginals:
    """The point blocks change no bit of any marginal."""

    @pytest.mark.parametrize("seed", [1, 2024])
    @pytest.mark.parametrize(
        "eps, j_hi, reps",
        [
            (0.005, np.inf, 4097),  # one replicate past a whole chunk
            (0.005, np.inf, 9000),
            (0.005, 0.1, 9000),  # a finite band
            (1.0, np.inf, 9000),  # about e**-1 of the replicates hold no point
            (1e-5, np.inf, 3),  # each replicate is more than one block
        ],
    )
    def test_equal_to_chunk_at_once(self, params_s, seed, eps, j_hi, reps):
        cfg = SamplerConfig(master_seed=seed)
        j_lo = limit_jump_threshold(params_s, eps)
        if eps == 1e-5:
            assert _nu_tail(params_s, j_lo) > 2 * limits._MARGINAL_POINTS
        got = stable_band_marginals(params_s, j_lo, j_hi, 0.5, reps, cfg, stream=7)
        want = _marginals_chunk_at_once(params_s, j_lo, j_hi, 0.5, reps, cfg, stream=7)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("points", [1, 5, 333])
    def test_any_block_size(self, params_s, monkeypatch, points):
        # Blocks of a few points: most blocks are one replicate, and block
        # edges fall between and after replicates with no point.
        monkeypatch.setattr(limits, "_MARGINAL_POINTS", points)
        cfg = SamplerConfig(master_seed=3)
        for eps, t in ((0.1, 0.3), (1.0, 0.9)):
            j_lo = limit_jump_threshold(params_s, eps)
            got = stable_band_marginals(params_s, j_lo, np.inf, t, 5000, cfg)
            want = _marginals_chunk_at_once(params_s, j_lo, np.inf, t, 5000, cfg)
            assert got.tobytes() == want.tobytes()

    def test_memory_is_bounded(self, params_s):
        # The benchmark's size.  The births and deaths of one chunk's
        # component are the peak: 14.9 MB measured, against 52.7 MB when a
        # chunk drew and summed all of its points at once.
        cfg = SamplerConfig(master_seed=1)
        tracemalloc.start()
        try:
            stable_marginals(params_s, 0.005, 0.5, 20_000, cfg, stream=11_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000


class TestRefinement:
    def test_medians_decrease(self, params_s):
        cfg = SamplerConfig(master_seed=10)
        report = epsilon_refinement_study(
            params_s, (0.1, 0.05, 0.025, 0.0125), 300, cfg
        )
        assert report.distances.shape == (300, 3)
        assert report.medians_strictly_decreasing

    def test_validation(self, params_s, params_g):
        cfg = SamplerConfig(master_seed=11)
        with pytest.raises(ValueError):
            epsilon_refinement_study(params_s, (0.1,), 10, cfg)
        with pytest.raises(ValueError):
            epsilon_refinement_study(params_s, (0.05, 0.1), 10, cfg)
        with pytest.raises(RegimeError):
            epsilon_refinement_study(params_g, (0.1, 0.05), 10, cfg)

    def test_coupling_is_nested(self, params_s):
        # The study's distances[r, k] equal the sup over [0, 1] of the
        # difference of the centered levels k + 1 and k, where each level
        # superposes onto the coarser one the band the study draws for it
        # (same stream, tag k + 1).  The difference is linear between the
        # finer level's breakpoints, so values and right limits there suffice.
        cfg = SamplerConfig(master_seed=12)
        eps, stream, reps = (0.1, 0.05, 0.025), 3, 3
        report = epsilon_refinement_study(params_s, eps, reps, cfg, stream=stream)
        thr = [limit_jump_threshold(params_s, e) for e in eps]
        means = [stable_mean(params_s, e) for e in eps]
        for rep in range(reps):
            coarse = sample_limit_band(params_s, thr[0], np.inf, cfg, stream=stream + rep, tag=0)
            for k in range(len(eps) - 1):
                fine = _superpose(
                    coarse,
                    sample_limit_band(
                        params_s, thr[k + 1], thr[k], cfg, stream=stream + rep, tag=k + 1
                    )
                )
                assert np.all(fine.j >= thr[k + 1])
                a, b = StablePath.from_points(coarse), StablePath.from_points(fine)
                grid = b.breakpoints()
                sup = max(
                    np.max(np.abs((b(grid) - means[k + 1]) - (a(grid) - means[k]))),
                    np.max(
                        np.abs(
                            (b.right_limit(grid) - means[k + 1])
                            - (a.right_limit(grid) - means[k])
                        )
                    ),
                )
                assert report.distances[rep, k] == pytest.approx(sup, rel=1e-9, abs=1e-9)
                coarse = fine
