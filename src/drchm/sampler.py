"""Exact sampling of the vertex process, the interaction process, and the
limiting jump process.

Vertices relevant to the horizon [0, 1] split into two independent Poisson
components: those alive at time 0 (stationary occupancy: Poisson(n) many,
with independent Exp(1) age and residual lifetime) and those born in (0, 1]
(Poisson(n) many, Exp(1) lifetime).  Vertices dead before 0 or born after 1
cannot carry an edge on the horizon and are never generated.  The jump points
of the heavy-tailed limit follow the same birth-death law, and both draw each
component with the same function (_alive_at_zero, _born_in_horizon).

Interactions have unbounded connection radii as their weight w approaches 0,
so a finite sample truncates at w >= w_min.  The truncation is organised in
dyadic weight bands, and the interactions come out band after band; each
band is sampled on a spatial domain wide enough to cover every radius that
band can produce against the realized vertex sample.  The expected number
of edges lost below w_min is available in closed form conditional on the
vertices and is checked against a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, RegimeError, TruncationError, check_number, require_stable
from .rng import stream_generator, substream_generator


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling controls.

    w_min
        Interaction-weight cutoff; interactions with w < w_min are dropped.
    missed_edge_tolerance
        Upper bound accepted for the expected number of edges lost to the
        cutoff (conditional on the realized vertex sample).
    """

    master_seed: int = 0
    w_min: float = 1e-5
    missed_edge_tolerance: float = 1.0

    def __post_init__(self):
        check_number("master_seed", self.master_seed, 0, np.inf, lo_closed=True, integer=True)
        check_number("w_min", self.w_min, 0, 1)
        check_number("missed_edge_tolerance", self.missed_edge_tolerance, 0, np.inf)


@dataclass
class VertexSample:
    """Realized vertices, stored as parallel arrays."""

    x: np.ndarray
    u: np.ndarray
    b: np.ndarray
    l: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    @property
    def death(self) -> np.ndarray:
        return self.b + self.l


@dataclass
class InteractionSample:
    """Realized interactions as parallel arrays, band after band: the first
    band_counts[0] belong to weight band 0, the next band_counts[1] to band
    1, and so on.  band_w_lo[k] is band k's lower weight edge, one entry per
    band of weight_bands (empty bands included; none for an empty vertex
    sample)."""

    z: np.ndarray
    w: np.ndarray
    r: np.ndarray
    band_counts: np.ndarray
    band_w_lo: np.ndarray
    missed_edge_bound: float = 0.0

    def __len__(self) -> int:
        return len(self.z)


@dataclass
class LimitPointSample:
    """Jumps of the limiting process as parallel arrays: size, birth time,
    lifetime."""

    j: np.ndarray
    b: np.ndarray
    l: np.ndarray

    def __len__(self) -> int:
        return len(self.j)

    @property
    def death(self) -> np.ndarray:
        return self.b + self.l


def sample_vertices(
    params: ModelParams, cfg: SamplerConfig, stream: int = 0
) -> VertexSample:
    """Sample every vertex in [0, n] whose alive interval meets [0, 1]."""
    rng = stream_generator(cfg.master_seed, stream)
    _, b_alive, d_alive = _alive_at_zero(rng, params.n)
    _, b_born, l_born = _born_in_horizon(rng, params.n)
    m = len(b_alive) + len(b_born)
    x = rng.uniform(0.0, params.n, size=m)
    # Uniform(0, 1]: reflect the half-open interval; exact zeros are excluded.
    u = 1.0 - rng.random(size=m)
    return VertexSample(
        x=x,
        u=u,
        b=np.concatenate([b_alive, b_born]),
        l=np.concatenate([d_alive - b_alive, l_born]),
    )


def _alive_at_zero(rng: np.random.Generator, rate: float, size=None):
    """Poisson(rate) points alive at time 0 (a count per replicate when size
    is given) with independent Exp(1) age and residual lifetime.  Returns the
    counts, the births -age and the deaths, i.e. the residual lifetimes."""
    counts = rng.poisson(rate, size=size)
    total = int(np.sum(counts))
    age = rng.exponential(size=total)
    residual = rng.exponential(size=total)
    return counts, np.negative(age, out=age), residual


def _born_in_horizon(rng: np.random.Generator, rate: float, size=None):
    """Poisson(rate) points born in (0, 1] (a count per replicate when size is
    given) with Exp(1) lifetimes.  Returns the counts, births and lifetimes."""
    counts = rng.poisson(rate, size=size)
    total = int(np.sum(counts))
    birth = rng.uniform(0.0, 1.0, size=total)
    lifetime = rng.exponential(size=total)
    return counts, birth, lifetime


def weight_bands(cfg: SamplerConfig) -> list[tuple[float, float]]:
    """Dyadic weight bands [(hi_0, lo_0), ...] from 1 down to w_min."""
    bands = []
    hi = 1.0
    while hi > cfg.w_min:
        lo = max(hi * 0.5, cfg.w_min)
        bands.append((hi, lo))
        hi = lo
    return bands


def missed_edge_bound(
    params: ModelParams, vs: VertexSample, w_min: float
) -> float:
    """Expected number of edges lost to the cutoff w < w_min.

    Exact conditional on the vertex sample: for each vertex, the intensity
    mass of connecting interactions with w < w_min and time in the span that
    can matter on the horizon.
    """
    if len(vs) == 0:
        return 0.0
    span = np.maximum(0.0, np.minimum(vs.death, 1.0) - vs.b)
    per_vertex = (
        params.c_tilde
        * vs.u ** (-params.gamma)
        * w_min ** (1.0 - params.gamma_prime)
        * span
    )
    return float(per_vertex.sum())


def sample_interactions(
    params: ModelParams,
    cfg: SamplerConfig,
    vs: VertexSample,
    stream: int = 0,
) -> InteractionSample:
    """Sample every interaction (with w >= w_min) that can touch the sample.

    Raises TruncationError when the missed-edge bound exceeds the configured
    tolerance; lower w_min in that case.  Raises RegimeError when a band's
    window n + 2 * margin is past the float range (raise w_min then), or
    when the bands would draw more than _MAX_INTERACTIONS interactions in
    expectation; both are checked before any band draws.
    """
    bound = missed_edge_bound(params, vs, cfg.w_min)
    if bound > cfg.missed_edge_tolerance:
        raise TruncationError(
            f"expected missed edges {bound:.3g} exceed tolerance "
            f"{cfg.missed_edge_tolerance:.3g}; lower w_min"
        )
    if len(vs) == 0:
        empty = np.array([])
        return InteractionSample(empty, empty, empty, np.array([], dtype=int), empty)

    rng = substream_generator(cfg.master_seed, stream, tag=1)
    t_lo = float(vs.b.min())
    u_min = float(vs.u.min())
    bands = _band_table(params, cfg, t_lo, u_min)

    # A band draws nothing when its count is 0, which consumes no generator
    # state, so the bands that do draw see the same stream.
    zs, ws, rs, counts = [], [], [], []
    for w_hi, w_lo, margin, mean in bands:
        count = rng.poisson(mean)
        if count:
            zs.append(rng.uniform(-margin, params.n + margin, size=count))
            ws.append(rng.uniform(w_lo, w_hi, size=count))
            rs.append(rng.uniform(t_lo, 1.0, size=count))
        counts.append(count)

    # One array at a time, each band list dropped once joined, so that at
    # most one array's bands and its join are held beside the finished ones.
    z, zs = _join(zs), None
    w, ws = _join(ws), None
    r, rs = _join(rs), None
    return InteractionSample(
        z=z,
        w=w,
        r=r,
        band_counts=np.array(counts),
        band_w_lo=np.array([w_lo for _, w_lo, _, _ in bands]),
        missed_edge_bound=bound,
    )


# Most interactions a replicate may draw in expectation.  The largest window
# (n = 1e9) draws about n * (1 - t_lo), some 2e10, before any margin;
# 1e11 interactions would already hold 2.4 TB in z, w and r, and numpy's
# Poisson sampler stops near 9e18.
_MAX_INTERACTIONS = 1e11


def _band_table(params: ModelParams, cfg: SamplerConfig, t_lo: float, u_min: float) -> list:
    """(w_hi, w_lo, margin, Poisson mean) of each weight band: the band is
    sampled on [-margin, n + margin], wide enough for every radius it can
    produce against vertex marks >= u_min, over times [t_lo, 1].  Raises
    RegimeError when a window is past the float range or the means sum past
    _MAX_INTERACTIONS."""
    table = []
    for w_hi, w_lo in weight_bands(cfg):
        try:
            margin = params.beta * u_min ** (-params.gamma) * w_lo ** (-params.gamma_prime)
        except OverflowError:  # w_lo**(-gamma_prime) alone is past the float range
            margin = math.inf
        length = params.n + 2.0 * margin
        if length == math.inf:
            raise RegimeError(
                f"the weight band at w = {w_lo:.3g} would be sampled over a "
                f"margin past the float range (u_min = {u_min:.3g}); raise w_min"
            )
        table.append((w_hi, w_lo, margin, length * (w_hi - w_lo) * (1.0 - t_lo)))
    total = math.fsum(mean for _, _, _, mean in table)
    if not total <= _MAX_INTERACTIONS:
        raise RegimeError(
            f"the weight bands would draw {total:.3g} interactions in "
            f"expectation, past the cap of {_MAX_INTERACTIONS:.0e} per replicate "
            f"(u_min = {u_min:.3g}); lower beta or n"
        )
    return table


def _join(parts: list) -> np.ndarray:
    """The bands' arrays end to end; an empty float64 array when none drew."""
    return np.concatenate(parts) if parts else np.array([])


def _whole_blocks(counts: np.ndarray, size: int):
    """Consecutive runs [a, b) of items holding counts[i] elements each, every
    run at most size elements or a single item, as (a, b, first element,
    past-last element); the elements are numbered item after item."""
    ends = np.cumsum(counts)
    if len(ends) and ends[-1] <= size:  # the common case: one block
        yield 0, len(counts), 0, int(ends[-1])
        return
    a = 0
    while a < len(counts):
        start = int(ends[a] - counts[a])
        b = max(a + 1, int(np.searchsorted(ends, start + size, side="right")))
        yield a, b, start, int(ends[b - 1])
        a = b


def limit_jump_threshold(params: ModelParams, epsilon: float) -> float:
    """Smallest jump size retained at truncation level epsilon."""
    return params.c_tilde * epsilon ** params.gamma


def sample_limit_points(
    params: ModelParams,
    epsilon: float,
    cfg: SamplerConfig,
    stream: int = 0,
) -> LimitPointSample:
    """Sample the limiting jump process above truncation level epsilon.

    Points carry a jump size J with tail measure nu([a, inf)) =
    c_tilde**(1/gamma) * a**(-1/gamma), restricted to J >= c_tilde *
    epsilon**gamma, with birth-death marks exactly as for vertices.  Only
    points alive somewhere on [0, 1] are produced.
    """
    require_stable(params)
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    rng = stream_generator(cfg.master_seed, stream)
    j_lo = limit_jump_threshold(params, epsilon)
    return _sample_band_points(params, j_lo, np.inf, rng)


def sample_limit_band(
    params: ModelParams,
    j_lo: float,
    j_hi: float,
    cfg: SamplerConfig,
    stream: int = 0,
    tag: int = 0,
) -> LimitPointSample:
    """Sample the limiting jump points with size in [j_lo, j_hi).

    Bands with distinct tags drawn from the same (seed, stream) are
    independent, so refining a truncation level superposes new small-jump
    bands onto the coarser sample (a coupling across levels).
    """
    require_stable(params)
    if not 0 < j_lo < j_hi:
        raise ValueError(f"need 0 < j_lo < j_hi, got ({j_lo}, {j_hi})")
    rng = substream_generator(cfg.master_seed, stream, tag)
    return _sample_band_points(params, j_lo, j_hi, rng)


def _nu_tail(params: ModelParams, a: float) -> float:
    return params.c_tilde ** (1.0 / params.gamma) * a ** (-1.0 / params.gamma)


def _sample_band_points(
    params: ModelParams,
    j_lo: float,
    j_hi: float,
    rng: np.random.Generator,
) -> LimitPointSample:
    """Points with jump size in [j_lo, j_hi) alive somewhere on [0, 1]."""
    rate = _nu_tail(params, j_lo)
    if np.isfinite(j_hi):
        rate -= _nu_tail(params, j_hi)
    # Alive-at-0 and born-in-(0,1] components, each with J-rate per unit time.
    _, b_alive, d_alive = _alive_at_zero(rng, rate)
    _, b_born, l_born = _born_in_horizon(rng, rate)
    b = np.concatenate([b_alive, b_born])
    l = np.concatenate([d_alive - b_alive, l_born])
    j = _jump_sizes(params, j_lo, j_hi, 1.0 - rng.random(size=len(b)))
    return LimitPointSample(j=j, b=b, l=l)


def _jump_sizes(params: ModelParams, j_lo: float, j_hi: float, v: np.ndarray) -> np.ndarray:
    """Jump sizes in [j_lo, j_hi) from uniforms v in (0, 1], by the inverse
    transform of nu's tail restricted to the band (nu is Pareto(1/gamma)
    above j_lo, so an unbounded band needs no tail masses)."""
    if not np.isfinite(j_hi):
        return j_lo * v ** (-params.gamma)
    lo_mass = _nu_tail(params, j_lo)
    hi_mass = _nu_tail(params, j_hi)
    return params.c_tilde * (hi_mass + v * (lo_mass - hi_mass)) ** (-params.gamma)

