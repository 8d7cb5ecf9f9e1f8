"""Closed-form moment constants and independent quadrature oracles.

Every closed-form moment used by the validation experiments has a numeric
twin here, obtained by integrating the defining intensity integrals with
fixed composite Gauss-Legendre rules.  The numeric values are the
binding ground truth: where closed-form candidates disagree with each other,
experiments compare against the integrals and report which (if any) closed
form they reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ModelParams, require_gaussian, require_stable


# Gauss-Legendre node counts per panel: the power and log rules, the
# half-line rule, and the u-, z- and w-panels of the window pair rule.
RULE_ORDER = 24
HALF_LINE_ORDER = 10
PROFILE_U_ORDER = 16
PROFILE_Z_ORDER = 12
PROFILE_W_ORDER = 24
# Last edge of the half-line rule: beyond it e^-x is below 1e-15.
HALF_LINE_CUTOFF = 36
# Smallest node of the power rule (see power_rule), and the smallest w-panel
# edge of window_pair_spatial_quad.
U_FLOOR = 1e-100


# ---------------------------------------------------------------------------
# quadrature building blocks


@lru_cache(maxsize=32)
def gauss_rule(order: int):
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


def gl_panel(lo, hi, order: int):
    """Nodes and weights for one panel [lo, hi]; lo/hi may be arrays."""
    x, w = gauss_rule(order)
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


@lru_cache(maxsize=1)
def half_line_rule():
    """Composite rule for integrals over [0, inf) of exponentially decaying
    integrands.  Panels are geometrically graded near 0 (so integrands with
    an algebraic endpoint singularity are still resolved) and unit-width out
    to HALF_LINE_CUTOFF."""
    edges = np.concatenate(
        [
            [0.0],
            2.0 ** np.arange(-24, 1, dtype=float),
            np.arange(2, HALF_LINE_CUTOFF + 1),
        ]
    )
    nodes, weights = gl_panel(edges[:-1], edges[1:], HALF_LINE_ORDER)
    return nodes.ravel(), weights.ravel()


def power_rule(p: float):
    """Nodes u and weights for integrals over u in (0, 1] of f(u) ~ u^-p
    near 0, with p < 1.

    The substitution u = v^s, s = 1/(1 - p), turns u^-p du into s dv, so a
    pure power is integrated exactly.  Where that would put nodes below
    U_FLOOR (p above about 0.97), the v-panel starts at U_FLOOR^(1/s) and
    [0, U_FLOOR] becomes one node at U_FLOOR of weight s * U_FLOOR, which is
    exact for u^-p as well.
    """
    if not p < 1:
        raise ValueError(f"singularity order must be < 1, got {p}")
    s = 1.0 / (1.0 - p)
    v, wv = (a.ravel() for a in gl_panel(0.0, 1.0, RULE_ORDER))
    if v[0] ** s >= U_FLOOR:
        return v**s, wv * s * v ** (s - 1.0)
    v, wv = (a.ravel() for a in gl_panel(U_FLOOR ** (1.0 / s), 1.0, RULE_ORDER))
    return (
        np.append(U_FLOOR, v**s),
        np.append(s * U_FLOOR, wv * s * v ** (s - 1.0)),
    )


def log_rule(lo: float, hi: float = 1.0):
    """Nodes u and weights for integrals over u in [lo, hi], 0 < lo < hi,
    via u = e^x, which turns a power of u into an exponential in x."""
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    x, wx = (a.ravel() for a in gl_panel(math.log(lo), math.log(hi), RULE_ORDER))
    return np.exp(x), wx * np.exp(x)


def _kink(scale, crit, exponent: float):
    """v in [0, 1] at which scale * v^-exponent equals crit, or 1 where crit
    <= scale (the power never falls to crit); array-safe.  A kink below the
    smallest double is 0."""
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        log_ratio = np.minimum(np.log(scale) - np.log(crit), 0.0)
        return np.exp(log_ratio / exponent)


# ---------------------------------------------------------------------------
# spatial integrals


def spatial_size_quad(params: ModelParams, u):
    """Numeric measure of the interaction set connecting to a vertex of
    weight u: the z-extent is the interval length 2*beta*u^-gamma*w^-gamma',
    integrated over w in (0, 1].  Vectorized over u."""
    w, ww = power_rule(params.gamma_prime)
    w_mass = float(ww @ w ** (-params.gamma_prime))
    out = 2.0 * params.beta * np.asarray(u, dtype=float) ** (-params.gamma) * w_mass
    return out if out.ndim else float(out)


def spatial_moment_quad(params: ModelParams, alpha: float, u_lo: float = 0.0):
    """Numeric per-unit-length integral of spatial_size(u)**alpha over
    u in [u_lo, 1]; requires alpha*gamma < 1 when u_lo == 0."""
    if u_lo > 0.0:
        u, wu = log_rule(u_lo)
    else:
        if not alpha * params.gamma < 1:
            raise ValueError("alpha * gamma must be < 1 for the full mark range")
        u, wu = power_rule(alpha * params.gamma)
    return float(wu @ spatial_size_quad(params, u) ** alpha)


def window_overlap_profile(params: ModelParams, z, w: float, n: float):
    """g(z, w) = integral over u in (0,1] of |[z - rho, z + rho] ∩ [0, n]|,
    with rho = c * u^-gamma and c = beta * w^-gamma'.  Vectorized over z.

    The overlap is a + b * rho on each of the three u-panels between the
    kinks where rho crosses |z| and |z - n|.  Each panel is substituted
    u = v^r with r = 6/(1 - gamma): then rho du = c r v^5 dv and
    a du = a r v^(r-1) dv, so no panel has a near-singular end.  Outside
    the window the two parts nearly cancel as gamma -> 0 (the overlap
    rho - |z - n| is a fraction ~gamma of rho), which multiplies the Gauss
    error of v^(r-1) by ~1/gamma; with r = 4/(1 - gamma) that error reached
    2.6e-9 relative, with r = 6/(1 - gamma) it is below 1e-11.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    r = 6.0 / (1.0 - params.gamma)
    c = params.beta * w ** (-params.gamma_prime)
    kinks = [_kink(c, np.abs(crit), r * params.gamma) for crit in (z, z - n)]
    edges = np.sort(np.stack([np.zeros_like(z), *kinks, np.ones_like(z)], axis=-1), axis=-1)
    zz = z[:, None]
    total = np.zeros_like(z)
    for k in range(3):
        v, wv = gl_panel(edges[:, k], edges[:, k + 1], PROFILE_U_ORDER)
        # a zero-width panel at v = 0 has its nodes on 0; it weighs 0, so
        # its nodes move to 1
        log_v = np.log(np.where(v > 0.0, v, 1.0))
        rho = c * np.exp(-r * params.gamma * log_v)
        # the overlap is min(rho, n - z) + min(rho, z), clipped at 0; in
        # this order it does not cancel where rho is close to the distance
        # to the window
        overlap = np.maximum(np.minimum(rho, n - zz) + np.minimum(rho, zz), 0.0)
        total += np.sum(wv * np.exp((r - 1.0) * log_v) * overlap, axis=-1)
    return r * total


def _window_z_rule(n: float, c: float):
    """Nodes and weights on [n/2, inf) for z-integrals of the window profile
    at scale c.  Panel edges sit at n/2, n and the profile's kinks n - c, c
    and n + c, and geometrically at distances c * 2^k from n, inward to n/2
    and outward to 1e12 * max(n, c), where the profile's power tail ends."""
    dist = c * 2.0 ** np.arange(math.ceil(math.log2(1e12 * max(n, c) / c)) + 1)
    edges = np.concatenate([[n / 2.0, n, c], n - dist[dist < n / 2.0], n + dist])
    edges = np.unique(edges[edges >= n / 2.0])
    z, wz = gl_panel(edges[:-1], edges[1:], PROFILE_Z_ORDER)
    return z.ravel(), wz.ravel()


def window_pair_spatial_quad(params: ModelParams, n: float, power: float = 2.0):
    """Numeric integral over (z, w) in R x (0,1] of g(z, w)**power, with g
    the window overlap profile above.  This is the spatial factor of the
    shared-interaction covariance term at finite window length n.

    g is symmetric about n/2, so z runs over _window_z_rule and counts
    twice.  The w-axis has panel edges where c(w) = n and c(w) = n/2, at
    least U_FLOOR.  Where c >= n/2 the z-integral grows like w^-gamma', and
    where c < n/2 like w^-(power gamma'), so those panels are substituted
    w = v^r with r = 4/(1 - gamma') and r = 4/(1 - power gamma'): either way
    the integrand is about v^3.  One w-node is evaluated at a time.
    """
    gp = params.gamma_prime
    if not power * gp < 1:
        raise ValueError(f"power * gamma' must be < 1, got {power * gp}")
    # below U_FLOOR the w-mass is negligible, and c(w) could overflow
    w_n, w_half = np.maximum(_kink(params.beta, np.array([n, n / 2.0]), gp), U_FLOOR)
    total = 0.0
    for lo, hi, r in (
        (0.0, w_n, 4.0 / (1.0 - gp)),
        (w_n, w_half, 4.0 / (1.0 - gp)),
        (w_half, 1.0, 4.0 / (1.0 - power * gp)),
    ):
        if hi <= lo:
            continue
        v, wv = gl_panel(lo ** (1.0 / r), hi ** (1.0 / r), PROFILE_W_ORDER)
        for vk, wk in zip(v.ravel(), wv.ravel()):
            w = vk**r
            z, wz = _window_z_rule(n, params.beta * w ** (-gp))
            g = window_overlap_profile(params, z, w, n)
            total += wk * r * vk ** (r - 1.0) * float(wz @ g**power)
    return 2.0 * float(total)


def pair_spatial_limit_quad(params: ModelParams):
    """Per-unit-length limit of the shared-interaction spatial factor:
    integral over w of (integral over u of 2*rho(u, w) du)^2."""
    u, wu = power_rule(params.gamma)
    w, ww = power_rule(2.0 * params.gamma_prime)
    inner = 2.0 * params.beta * float(wu @ u ** (-params.gamma)) * w ** (-params.gamma_prime)
    return float(ww @ inner**2)


# ---------------------------------------------------------------------------
# temporal integrals


def temporal_weighted_quad(f, b_hi, l_lo_of_b):
    """Integral over b in (-inf, b_hi], l in [l_lo(b), inf) of e^-l f(b, l).

    Both axes run on half_line_rule, with b = b_hi - y and l = l_lo(b) + q;
    f and l_lo_of_b take arrays.
    """
    s, ws = half_line_rule()
    b = b_hi - s[:, None]
    l = l_lo_of_b(b) + s
    return float(ws @ (np.exp(-l) * f(b, l)) @ ws)


def alive_moment_quad(t1: float, t2: float, k: int):
    """Integral of (t1-b)^a (t2-b)^b over vertices alive on [t1, t2]
    (b <= t1 <= t2 <= b + l), with (a, b) = (1, 0) for k=1, (1, 1) for k=2."""
    if k == 1:
        f = lambda b, l: t1 - b
    elif k == 2:
        f = lambda b, l: (t1 - b) * (t2 - b)
    else:
        raise ValueError(f"k must be 1 or 2, got {k}")
    return temporal_weighted_quad(f, t1, lambda b: t2 - b)


def temporal_profile_quad(r, t: float):
    """Numeric intensity mass of vertices for which an interaction at time r
    yields an edge active at t: integral of e^-l over {b <= r, l >= t - b}.
    Vectorized over r; zero for r > t.

    With b = r - y and l = (t - b) + q the integrand factors into e^-(t-b)
    times the unit tail integral of e^-q, both summed on half_line_rule.
    """
    s, ws = half_line_rule()
    gap = t - np.asarray(r, dtype=float)
    body = np.exp(-(np.maximum(gap, 0.0)[..., None] + s)) @ ws
    out = np.where(gap >= 0.0, body * (ws @ np.exp(-s)), 0.0)
    return out if out.ndim else float(out)


def temporal_pair_quad(t1: float, t2: float):
    """Integral over r of profile(r, t1) * profile(r, t2) -- the temporal
    factor of the shared-interaction covariance term -- with
    r = min(t1, t2) - x on half_line_rule."""
    x, wx = half_line_rule()
    r = min(t1, t2) - x
    return float(wx @ (temporal_profile_quad(r, t1) * temporal_profile_quad(r, t2)))


# ---------------------------------------------------------------------------
# constants and oracle values


@dataclass(frozen=True)
class CovarianceConstants:
    """The three constants entering the limiting covariance of the
    normalized edge count.

    c1 scales the same-vertex/same-interaction term, c2 the same-vertex
    cross-interaction term, c3 the shared-interaction term.
    """

    c1: float
    c2: float
    c3: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "CovarianceConstants":
        """The closed-form constant set c1, c2, c3.

        Defined only in the Gaussian regime (gamma < 1/2 and gamma' < 1/2);
        each constant diverges as the exponents approach 1/2.
        """
        require_gaussian(params)
        b2 = (2.0 * params.beta) ** 2
        return cls(
            c1=2.0 * params.beta / ((1.0 - params.gamma) * (1.0 - params.gamma_prime)),
            c2=b2 / ((1.0 - 2.0 * params.gamma) * (1.0 - params.gamma_prime) ** 2),
            c3=b2 / ((1.0 - params.gamma) ** 2 * (1.0 - 2.0 * params.gamma_prime)),
        )

    def covariance(self, lag):
        """(c1 + c3 + c2 (2 + |h|)) e^-|h| -- the closed-form covariance
        function built from this constant set.  Accepts scalar or array lags."""
        h = np.abs(np.asarray(lag, dtype=float))
        out = (self.c1 + self.c3 + self.c2 * (2.0 + h)) * np.exp(-h)
        return out if out.ndim else float(out)


def adjudicated_constants(params: ModelParams) -> CovarianceConstants:
    """Constant set matching the integral oracle: the shared-interaction
    term carries c3/2, not c3.

    With this set, CovarianceConstants.covariance reproduces
    oracle_covariance for every lag (the r-integral of the squared
    interaction profile contributes the extra factor 1/2).
    """
    base = CovarianceConstants.from_params(params)
    return CovarianceConstants(c1=base.c1, c2=base.c2, c3=base.c3 / 2.0)


def printed_covariance(params: ModelParams, lag: float) -> float:
    """The circulating closed-form covariance (c1 + c3 + c2(2+|h|))e^-|h|."""
    return CovarianceConstants.from_params(params).covariance(lag)


def printed_variance_limit(params: ModelParams) -> float:
    """The circulating closed form for lim Var(S_n(t))/n: c1 + c2 + c3/2.

    Note this disagrees at lag 0 with printed_covariance, which gives
    c1 + 2 c2 + c3; oracle_covariance adjudicates (it matches neither:
    the integrals give c1 + 2 c2 + c3/2).
    """
    c = CovarianceConstants.from_params(params)
    return c.c1 + c.c2 + c.c3 / 2.0


def mean_edge_count(params: ModelParams, u_lo: float = 0.0, u_hi: float = 1.0) -> float:
    """Exact expected edge count at any fixed time (stationarity), counting
    only edges whose vertex weight lies in [u_lo, u_hi].

    The full range gives c1 * n.
    """
    if not 0.0 <= u_lo <= u_hi <= 1.0:
        raise ValueError(f"mark range must satisfy 0 <= u_lo <= u_hi <= 1")
    g = params.gamma
    return (
        params.c_tilde
        * params.n
        * (u_hi ** (1.0 - g) - u_lo ** (1.0 - g))
        / (1.0 - g)
    )


@dataclass(frozen=True)
class VarianceTerms:
    """Decomposition of Var(S_n(t)) by Poisson case analysis."""

    single: float  # same vertex, same interaction
    square: float  # same vertex, distinct interactions
    pair: float  # distinct vertices, shared interaction

    @property
    def total(self) -> float:
        return self.single + self.square + self.pair


@lru_cache(maxsize=16)
def _spatial_factors(params: ModelParams, window: bool):
    """The time-free factors of the variance terms: the first and second
    spatial moments and the shared-interaction pair factor, the latter at
    window length params.n (window=True) or per unit length as n -> infinity."""
    m1 = spatial_moment_quad(params, 1.0)
    m2 = spatial_moment_quad(params, 2.0)
    if window:
        return m1, m2, window_pair_spatial_quad(params, params.n)
    return m1, m2, pair_spatial_limit_quad(params)


@lru_cache(maxsize=64)
def oracle_variance_terms(params: ModelParams, t: float) -> VarianceTerms:
    """Numeric Var(S_n(t)) at finite window length n, term by term.

    Var = int (|N| + |N|^2) d(vertex) + int D(;t)^2 d(interaction), where N
    is a vertex's interaction neighborhood and D an interaction's vertex
    intensity mass.  Each factor is integrated numerically; only the pair
    term feels the window edges.
    """
    require_gaussian(params)
    m1, m2, pair_s = _spatial_factors(params, window=True)
    t1 = alive_moment_quad(t, t, 1)
    t2 = alive_moment_quad(t, t, 2)
    pair_t = temporal_pair_quad(t, t)
    return VarianceTerms(
        single=params.n * m1 * t1,
        square=params.n * m2 * t2,
        pair=pair_s * pair_t,
    )


def oracle_variance(params: ModelParams, t: float) -> float:
    """Numeric Var(S_n(t)); see oracle_variance_terms."""
    return oracle_variance_terms(params, t).total


@dataclass(frozen=True)
class CovarianceOracle:
    """Limiting covariance of the normalized edge count at two times, as
    its three Poisson-case terms."""

    joint: float  # same vertex and same interaction at both times
    vertex: float  # same vertex, distinct interactions
    interaction: float  # distinct vertices sharing one interaction

    @property
    def oracle(self) -> float:
        return self.joint + self.vertex + self.interaction


@lru_cache(maxsize=256)
def oracle_covariance(params: ModelParams, t1: float, t2: float) -> CovarianceOracle:
    """Numeric n -> infinity limit of Cov(Sbar_n(t1), Sbar_n(t2)).

    Each of the three Poisson-case terms is a product of a per-unit-length
    spatial integral and a temporal integral, both evaluated numerically.
    """
    require_gaussian(params)
    if t2 < t1:
        t1, t2 = t2, t1
    m1, m2, pair_s = _spatial_factors(params, window=False)
    return CovarianceOracle(
        joint=m1 * alive_moment_quad(t1, t2, 1),
        vertex=m2 * alive_moment_quad(t1, t2, 2),
        interaction=pair_s * temporal_pair_quad(t1, t2),
    )


# ---------------------------------------------------------------------------
# stable-regime oracles


def stable_mean(params: ModelParams, epsilon: float) -> float:
    """Expected value of the truncated limit process at any time:
    (c_tilde / (1 - gamma)) * epsilon^-(1-gamma).

    Derivation: the mean is (integral of j over the jump intensity above the
    truncation threshold c_tilde * epsilon^gamma) times the mean temporal
    factor, which equals 1.  The first factor evaluates to
    c_tilde^(1/gamma) * threshold^(1 - 1/gamma) / (1 - gamma), and collapsing
    the powers of c_tilde gives the formula; an alternative circulating form
    with exponent -(1/gamma - 1) does not survive this reduction.
    """
    require_stable(params)
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return (
        params.c_tilde * epsilon ** (-(1.0 - params.gamma)) / (1.0 - params.gamma)
    )


def stable_mean_quad(params: ModelParams, epsilon: float) -> float:
    """Numeric twin of stable_mean: j-integral against the jump intensity
    density times the numeric mean temporal factor.

    The j-axis [a, inf) is mapped onto (0, 1] by j = a/u, dj = j^2/a du,
    which makes the integrand a power of u of order 2 - 1/gamma < 1."""
    require_stable(params)
    g = params.gamma
    a = params.c_tilde * epsilon**g
    density = lambda j: params.c_tilde ** (1.0 / g) / g * j ** (-1.0 / g - 1.0)
    u, wu = power_rule(2.0 - 1.0 / g)
    j = a / u
    jmass = float(wu @ (j * density(j) * j * j / a))
    temporal = temporal_weighted_quad(lambda b, l: 0.5 - b, 0.5, lambda b: 0.5 - b)
    return jmass * temporal


def stable_band_variance(params: ModelParams, eps_hi: float, eps_lo: float) -> float:
    """Variance of the limit process restricted to jump sizes in
    [eps_lo, eps_hi), at any fixed time:

        (2 c_tilde^(1/gamma) / (2 gamma - 1)) (eps_hi^(2-1/gamma) - eps_lo^(2-1/gamma)).

    The band bounds are raw jump sizes, not truncation levels: the formula
    equals twice the second moment of the jump intensity over [eps_lo,
    eps_hi), and the factor 2 is the mean squared age of an alive point.
    """
    require_stable(params)
    if not 0 < eps_lo < eps_hi:
        raise ValueError(
            f"band must satisfy 0 < eps_lo < eps_hi, got ({eps_lo}, {eps_hi})"
        )
    g = params.gamma
    return (
        2.0
        * params.c_tilde ** (1.0 / g)
        / (2.0 * g - 1.0)
        * (eps_hi ** (2.0 - 1.0 / g) - eps_lo ** (2.0 - 1.0 / g))
    )


def stable_band_variance_quad(params: ModelParams, eps_hi: float, eps_lo: float) -> float:
    """Numeric twin of stable_band_variance."""
    require_stable(params)
    g = params.gamma
    density = lambda j: params.c_tilde ** (1.0 / g) / g * j ** (-1.0 / g - 1.0)
    j, wj = log_rule(eps_lo, eps_hi)
    jmass = float(wj @ (j * j * density(j)))
    t = 0.5
    temporal = temporal_weighted_quad(lambda b, l: (t - b) ** 2, t, lambda b: t - b)
    return jmass * temporal
