"""Samplers for the two limiting processes of the normalized edge count.

In the Gaussian regime the limit, an Ornstein-Uhlenbeck process plus a CAR(2)
process, is sampled on a fixed time grid by its exact Markov recursion.  In
the heavy-tailed regime the limit is approximated by its jump-truncated
version: a sum of weighted age terms J * (t - B) over the jump points alive
at t, which is continuous piecewise linear between events and drops by
J * (death - B) when a point dies.  Truncation levels couple by superposing
independent bands of jump sizes, so refining a level only ever adds points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, require_gaussian, require_stable
from .oracles import _lower_gamma, adjudicated_constants, stable_mean
from .rng import stream_generator
from .sampler import (
    LimitPointSample,
    SamplerConfig,
    _alive_at_zero,
    _born_in_horizon,
    _jump_sizes,
    _nu_tail,
    _whole_blocks,
    limit_jump_threshold,
    sample_limit_band,
    sample_limit_points,
)

MAX_GRID_POINTS = 512
SLOPE_REL_TOL = 1e-9  # slope check tolerance beyond the evaluations' rounding

# Replicates drawn per block in stable_band_marginals.  Each block draws its
# counts, then its points, for all of its replicates at once, so the block
# size fixes the order of RNG draws: changing it changes every marginal.
_MARGINAL_CHUNK = 4096

# Most points whose jump sizes stable_band_marginals draws and sums at once,
# unless one replicate holds more.  Any size gives the same values.
_MARGINAL_POINTS = 32_768


@dataclass
class GaussianGrid:
    """A time grid with the innovation factors of the limit's Markov form.

    K(h) = a e^-h + b (1 + h) e^-h, a = c1 + c2 + c3 and b = c2 adjudicated,
    is the covariance of an OU process plus a CAR(2) state (X, X') with
    stationary covariance b I and transition e^-h (I + h N), N = [[1, 1],
    [-1, -1]].  innovation[k] is the lower-triangular factor of the
    covariance of the innovations entering both at times[k] (at times[0],
    the stationary law)."""

    times: np.ndarray
    innovation: np.ndarray

    @classmethod
    def build(cls, params: ModelParams, times) -> "GaussianGrid":
        """The innovation factors for the adjudicated constant set, in closed
        form per grid step so that tiny steps do not cancel."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("grid times must be a nonempty 1-d sequence")
        if len(times) > MAX_GRID_POINTS:
            raise ValueError(
                f"grids are capped at {MAX_GRID_POINTS} points, got {len(times)}"
            )
        if not np.all((times >= 0.0) & (times <= 1.0)):  # NaN fails too
            raise ValueError("grid times must lie in [0, 1]")
        if np.any(np.diff(times) <= 0):
            raise ValueError("grid times must be strictly increasing")
        require_gaussian(params)
        c = adjudicated_constants(params)
        # Unit-scale innovation covariances per step h: 1 - e^-2h for the OU
        # part, I - Phi Phi^T for the CAR(2) state (q11 = P(3, 2h) =
        # gamma(3, 2h) / 2, by the series, as 2h <= 2 on a grid in [0, 1]).
        h = np.diff(times)
        q11 = _lower_gamma(3.0, 2.0 * h) / 2.0
        q12 = 2.0 * h**2 * np.exp(-2.0 * h)
        q22 = -np.expm1(-2.0 * h) + np.exp(-2.0 * h) * (2.0 * h - 2.0 * h**2)
        innovation = np.zeros((len(times), 3, 3))
        innovation[0] = np.eye(3)
        innovation[1:, 0, 0] = np.sqrt(-np.expm1(-2.0 * h))
        innovation[1:, 1, 1] = np.sqrt(q11)
        # q11 underflows to 0 on steps below about 1e-103, where q12 has too.
        innovation[1:, 2, 1] = np.divide(q12, np.sqrt(q11), out=np.zeros_like(h), where=q11 > 0)
        # q22 - l21**2 is at least q22 / 4 on every step.
        innovation[1:, 2, 2] = np.sqrt(q22 - innovation[1:, 2, 1] ** 2)
        innovation *= np.sqrt([c.c1 + c.c2 + c.c3, c.c2, c.c2])[:, None]
        return cls(times=times, innovation=innovation)

    def path(self, normals: np.ndarray) -> np.ndarray:
        """The path driven by standard normals of shape (..., len(times), 3),
        linear in them: X(t_k) = e^-t_k sum_{j <= k} e^t_j [xi_j
        + (1 + t_k - t_j) eta_j1 + (t_k - t_j) eta_j2]."""
        t, weight = self.times, np.exp(self.times)
        xi, eta1, eta2 = np.einsum("kij,...kj->i...k", self.innovation, normals)
        level = np.cumsum(weight * (xi + eta1 - t * (eta1 + eta2)), axis=-1)
        slope = np.cumsum(weight * (eta1 + eta2), axis=-1)
        return (level + t * slope) / weight


def sample_gaussian_path(
    grid: GaussianGrid, cfg: SamplerConfig, stream: int = 0
) -> np.ndarray:
    """One centered Gaussian path on the grid, from 3 normals per point."""
    rng = stream_generator(cfg.master_seed, stream)
    return grid.path(rng.standard_normal((len(grid.times), 3)))


# ---------------------------------------------------------------------------
# heavy-tailed limit paths


@dataclass
class StablePath:
    """Piecewise-linear path value(t) = sum of j * (t - b) over points with
    b <= t <= d.

    Continuous except at death times, where the dying point's full
    contribution j * (d - b) drops out; the path value at a death time still
    includes the dying point (the alive interval is closed).
    """

    j: np.ndarray
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.j = np.asarray(self.j, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        if not len(self.j) == len(self.b) == len(self.d):
            raise ValueError("jump arrays must have equal length")

    @classmethod
    def from_points(cls, points: LimitPointSample) -> "StablePath":
        return cls(j=points.j, b=points.b, d=points.death)

    def breakpoints(self) -> np.ndarray:
        """Event times (births, deaths) in [0, 1] plus both endpoints."""
        ev = np.concatenate([[0.0, 1.0], self.b, self.d])
        ev = np.sort(ev[(ev >= 0.0) & (ev <= 1.0)])
        # deduplicated without np.unique, which imports numpy.ma on first use
        return ev[np.diff(ev, prepend=-np.inf) > 0.0]

    def _eval(self, t, closed_death: bool):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)[None, :]
        alive = self.b[:, None] <= tt
        alive &= (tt <= self.d[:, None]) if closed_death else (tt < self.d[:, None])
        vals = np.sum(self.j[:, None] * (tt - self.b[:, None]) * alive, axis=0)
        return float(vals[0]) if scalar else vals

    def __call__(self, t):
        return self._eval(t, closed_death=True)

    def right_limit(self, t):
        """Limit from the right: excludes points dying exactly at t."""
        return self._eval(t, closed_death=False)

    def validate_slopes(self) -> None:
        """Assert that between consecutive events the slope equals the sum
        of alive jump sizes.

        The observed slope is a difference quotient of two path values.  A
        value is a sum of at most len(j) nonnegative terms j * (t - b), so
        its rounding error is at most (len(j) + 2) * eps times the value, and
        the quotient carries the two values' errors divided by the interval
        length.  The tolerance is that bound plus SLOPE_REL_TOL relative
        error.  A wrong alive set moves the slope by a whole jump, at least
        c_tilde * epsilon**gamma, which exceeds the bound on all but the
        narrowest intervals.
        """
        grid = self.breakpoints()
        unit = (len(self.j) + 2) * np.finfo(float).eps
        for lo, hi in zip(grid[:-1], grid[1:]):
            mid = 0.5 * (lo + hi)
            expected = float(
                np.sum(self.j[(self.b <= mid) & (mid <= self.d)])
            )
            at_hi, after_lo = self(hi), self.right_limit(lo)
            observed = (at_hi - after_lo) / (hi - lo)
            rounding = unit * (abs(at_hi) + abs(after_lo)) / (hi - lo)
            if abs(observed - expected) > SLOPE_REL_TOL * max(abs(expected), 1.0) + rounding:
                raise AssertionError(
                    f"slope {observed} != alive jump sum {expected} on "
                    f"({lo}, {hi})"
                )

    def sup_norm_to_constant(self, c: float) -> float:
        """Exact sup over [0, 1] of |self(t) - c|."""
        grid = self.breakpoints()
        return max(
            float(np.max(np.abs(self(grid) - c))),
            float(np.max(np.abs(self.right_limit(grid) - c))),
        )


@dataclass
class StablePathSample:
    """A truncated-limit path together with its points and the exact mean
    used for centering."""

    points: LimitPointSample
    path: StablePath
    mean: float


def sample_stable_path(
    params: ModelParams,
    epsilon: float,
    cfg: SamplerConfig,
    stream: int = 0,
) -> StablePathSample:
    """Sample the truncated limiting path at level epsilon.

    The slope invariant is asserted on every sampled path.
    """
    points = sample_limit_points(params, epsilon, cfg, stream)
    path = StablePath.from_points(points)
    path.validate_slopes()
    return StablePathSample(
        points=points,
        path=path,
        mean=stable_mean(params, epsilon),
    )


@dataclass
class RefinementReport:
    """Coupled sup-norm distances between consecutive truncation levels.

    distances[r, k] is the sup over [0, 1] of the centered difference
    between levels eps_sequence[k] and eps_sequence[k + 1] in replicate r.
    """

    eps_sequence: tuple
    distances: np.ndarray

    @property
    def medians(self) -> np.ndarray:
        return np.median(self.distances, axis=0)

    @property
    def medians_strictly_decreasing(self) -> bool:
        med = self.medians
        return bool(np.all(np.diff(med) < 0))


def epsilon_refinement_study(
    params: ModelParams,
    eps_sequence,
    reps: int,
    cfg: SamplerConfig,
    stream: int = 0,
) -> RefinementReport:
    """Coupled refinement across decreasing truncation levels.

    Each level adds an independent band of jump sizes to the previous point
    set, so the centered difference between consecutive levels is exactly
    the new band's path minus the band's own mean; its sup-norm is recorded
    per replicate and per consecutive pair of levels.
    """
    require_stable(params)
    eps = [float(e) for e in eps_sequence]
    if len(eps) < 2:
        raise ValueError("need at least two truncation levels")
    if any(not 0 < e <= 1 for e in eps) or any(
        b >= a for a, b in zip(eps[:-1], eps[1:])
    ):
        raise ValueError("eps_sequence must be strictly decreasing in (0, 1]")
    thresholds = [limit_jump_threshold(params, e) for e in eps]
    means = [stable_mean(params, e) for e in eps]
    distances = np.empty((reps, len(eps) - 1))
    for rep in range(reps):
        for k in range(len(eps) - 1):
            band = StablePath.from_points(
                sample_limit_band(
                    params,
                    thresholds[k + 1],
                    thresholds[k],
                    cfg,
                    stream=stream + rep,
                    tag=k + 1,
                )
            )
            distances[rep, k] = band.sup_norm_to_constant(
                means[k + 1] - means[k]
            )
    return RefinementReport(eps_sequence=tuple(eps), distances=distances)


def stable_band_marginals(
    params: ModelParams,
    j_lo: float,
    j_hi: float,
    t: float,
    reps: int,
    cfg: SamplerConfig,
    stream: int = 0,
) -> np.ndarray:
    """Per-replicate values at a single time of the jump-size band
    [j_lo, j_hi): sum of J * (t - B) over band points alive at t.

    Vectorized across replicates; equivalent in law to building each band
    path and evaluating it at t, but cheap enough for large ensembles.
    Replicates come in chunks of _MARGINAL_CHUNK, and each chunk draws per
    component its counts, then every birth, then every second mark (death or
    lifetime), then the jump sizes, in the order the component's arrays
    would be drawn whole.  The points are cut into blocks of whole replicates
    of at most _MARGINAL_POINTS points (or one replicate).  A first walk
    draws the births block by block and then the second marks, keeping only
    the generator state at each block's start; then each block re-draws its
    births and second marks from those states on a side generator, while
    the stream's generator draws the block's jump uniforms, and the block is
    summed per replicate by one bincount.  Splitting one draw into
    consecutive draws leaves every value unchanged, so the call holds one
    block's arrays at any epsilon without moving a bit.
    """
    require_stable(params)
    if not 0 < j_lo < j_hi:
        raise ValueError(f"need 0 < j_lo < j_hi, got ({j_lo}, {j_hi})")
    rng = stream_generator(cfg.master_seed, stream)
    side = stream_generator(cfg.master_seed, stream)  # its state is set per block
    rate = _nu_tail(params, j_lo)
    if np.isfinite(j_hi):
        rate -= _nu_tail(params, j_hi)
    out = np.zeros(reps)
    for done in range(0, reps, _MARGINAL_CHUNK):
        m = min(_MARGINAL_CHUNK, reps - done)
        for component in (_alive_at_zero, _born_in_horizon):
            _add_alive_sums(
                out[done : done + m], component, rate, params, j_lo, j_hi, t, rng, side
            )
    return out


def _add_alive_sums(out, component, rate, params, j_lo, j_hi, t, rng, side) -> None:
    """Adds to out[k] the sum of J * (t - B) over the points alive at t of
    replicate k, len(out) replicates drawn by one component from rng; side
    re-draws each block's marks."""
    counts = component.counts(rng, rate, len(out))
    blocks = list(_whole_blocks(counts, _MARGINAL_POINTS))
    starts = ([], [])  # the generator state at each block's births, seconds
    for law, states in zip((component.births, component.seconds), starts):
        for _, _, p0, p1 in blocks:
            states.append(rng.bit_generator.state)
            law(rng, p1 - p0)
    for (r0, r1, p0, p1), b_state, d_state in zip(blocks, *starts):
        side.bit_generator.state = b_state
        b = component.births(side, p1 - p0)
        side.bit_generator.state = d_state
        d = component.seconds(side, p1 - p0)
        if component is _born_in_horizon:
            d += b  # lifetimes to death times
        jumps = _jump_sizes(params, j_lo, j_hi, 1.0 - rng.random(size=p1 - p0))
        contrib = jumps * (t - b) * ((b <= t) & (t <= d))
        rep = np.repeat(np.arange(r1 - r0), counts[r0:r1])
        out[r0:r1] += np.bincount(rep, weights=contrib, minlength=r1 - r0)


def stable_marginals(
    params: ModelParams,
    epsilon: float,
    t: float,
    reps: int,
    cfg: SamplerConfig,
    stream: int = 0,
) -> np.ndarray:
    """Per-replicate values of the truncated limit at a single time."""
    return stable_band_marginals(
        params,
        limit_jump_threshold(params, epsilon),
        np.inf,
        t,
        reps,
        cfg,
        stream=stream,
    )
