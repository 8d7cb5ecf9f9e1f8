"""Randomized numeric verification of the closed-form neighborhood integrals.

Every closed-form identity and every one-sided bound that the moment oracles
rely on is re-derived here by direct numeric integration at randomized
parameter draws.  Equalities must agree to a relative tolerance of 1e-6;
bounds must hold up to a tiny quadrature slack.  Each check produces one
record (identifier, number of draws, worst relative error, violation count,
largest ratio of a bound's numeric side to the bound).

Two of the checked statements are corrected forms.  The per-size bound for
the change of a monotone temporal neighborhood between two times t1 < t2 is
checked as Gamma(m + 2) * (t2 - t1): the naive (t2 - t1)**m form fails for
the death-side neighborhood as soon as m >= 2, since its exact integral is
m! * (t2 - t1).  The r-integral of the changed-neighborhood profile is an
equality only on the birth side; the death side is checked one-sidedly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import (
    ModelParams,
    Vertex,
    pm_temporal_nbhd_size,
    spatial_nbhd_size,
    temporal_nbhd_size,
)
from .oracles import (
    HALF_LINE_CUTOFF,
    _lower_gamma,
    _upper_gamma,
    exp_tail,
    gauss_rule,
    gl_panel,
    half_line_rule,
    line_rule,
    log_rule,
    power_rule,
    spatial_moment_quad,
    spatial_size_quad,
    stable_band_variance,
    stable_mean,
    temporal_profile_quad,
    temporal_weighted_quad,
    window_pair_spatial_quad,
)
from .rng import stream_generator

EQUALITY_TOLERANCE = 1e-6
BOUND_SLACK = 1e-6
# Gauss nodes per panel of the pair-overlap w-integral.
_OVERLAP_ORDER = 16
# Where _powexp switches from the incomplete gamma series to the continued
# fraction; the term counts of _lower_gamma and _upper_gamma reach round-off
# on their side of it.
_GAMMA_SWITCH = 6.0


@dataclass
class CatalogRecord:
    """Outcome of one lemma check over all its draws."""

    lemma_id: str
    kind: str  # "equality" or "bound"
    draws: int
    max_rel_err: float
    bound_violations: int
    # largest value / reference of a bound record, 0.0 for an equality
    max_bound_ratio: float = 0.0

    @property
    def passed(self) -> bool:
        if self.kind == "equality":
            return self.max_rel_err <= EQUALITY_TOLERANCE
        return self.bound_violations == 0


# ---------------------------------------------------------------------------
# shared numeric building blocks


def _powexp(alpha: float, lo, hi):
    """Integral of l^alpha * e^-l over [lo, hi] for alpha >= 0, as
    differences of incomplete gamma functions (a plain Gauss panel loses
    digits at the l = 0 endpoint for fractional alpha).  The part below
    _GAMMA_SWITCH is a difference of lower functions and the part above it
    a difference of upper ones, which are small there, so far out no
    difference is taken near Gamma(alpha + 1).  A narrow interval just below
    the switch still cancels: 2e-10 relative at alpha = 0, width 1e-3."""
    a = alpha + 1.0
    lo = np.maximum(np.asarray(lo, dtype=float), 0.0)
    hi = np.maximum(np.asarray(hi, dtype=float), lo)
    x = np.stack(np.broadcast_arrays(lo, hi))
    lower = _lower_gamma(a, np.minimum(x, _GAMMA_SWITCH))
    upper = _upper_gamma(a, np.maximum(x, _GAMMA_SWITCH))
    return (lower[1] - lower[0]) + (upper[0] - upper[1])


def _graded_breaks(points):
    """Break points with geometric refinement on both sides, for integrands
    with a fractional-power kink at the break."""
    out = []
    for b in points:
        for off in (0.0, 1e-6, 1e-4, 1e-2, 0.25):
            out += [b - off, b + off]
    return out


# ---------------------------------------------------------------------------
# temporal helpers for the monotone (plus / minus) neighborhoods


def _pm_moment_numeric(alpha: float, t: float, sign: str) -> float:
    """Numeric integral of |N^sign(p; t)|^alpha e^-l over {b + l >= 0}.

    Parameterized by the age s = t - b; the plus size is min(l, s), the
    minus size is l restricted to l <= s, and b + l >= 0 means l >= s - t.
    """
    s, ws = line_rule(breaks=_graded_breaks([t]), order=16)
    lo = np.maximum(s - t, 0.0)
    if sign == "minus":
        return float(np.sum(ws * _powexp(alpha, lo, s)))
    body = _powexp(alpha, lo, s)
    tail = s**alpha * exp_tail(s)
    return float(np.sum(ws * (body + tail)))


def _pm_difference_moment_numeric(
    m: int, t1: float, t2: float, sign: str
) -> float:
    """Numeric integral of |N^sign(p; t2) \\ N^sign(p; t1)|^m e^-l over
    {b + l >= 0}, with sizes taken from the set definitions.

    With s = t2 - b: the plus difference has size (min(l, s) - shift)^+ with
    shift = (s - (t2 - t1))^+, and the minus difference keeps the full span l
    on the death window l in (shift, s].
    """
    delta = t2 - t1
    s, ws = line_rule(breaks=_graded_breaks([delta, t2]), order=16)
    shift = np.maximum(s - delta, 0.0)
    if sign == "minus":
        return float(np.sum(ws * _powexp(m, shift, s)))
    body = np.exp(-shift) * _powexp(m, 0.0 * s, s - shift)
    tail = np.minimum(s, delta) ** m * exp_tail(s)
    return float(np.sum(ws * (body + tail)))


def _pm_profile_inner(r, t1: float, t2: float, sign: str):
    """Numeric mass of {p: r in N^sign(p; t2) \\ N^sign(p; t1)} under e^-l
    on {b + l >= 0}, vectorized over r and parameterized by s = r - b >= 0.
    With t1 = -inf it is the mass of {p: r in N^sign(p; t2)}."""
    r = np.asarray(r, dtype=float)
    if sign == "plus":
        # being in the t2 neighborhood but not the t1 one forces
        # t1 < r <= t2; there the conditions reduce to b <= r <= b + l, so
        # l >= s + max(-r, 0), and the s-integral of that lifetime tail is
        # exp_tail(max(-r, 0)) times the unit tail
        val = exp_tail(np.maximum(-r, 0.0)) * exp_tail(0.0)
        return np.where((r > t1) & (r <= t2), val, 0.0)
    # the l-panel is [s + c, s + c + width] with c and width free of s, so
    # e^-l factors into e^-s, whose half-line sum is the unit tail, times
    # one panel sum per r
    c = np.maximum(np.maximum(t1 - r, -r), 0.0)
    nodes, wts = gl_panel(c, c + np.maximum(t2 - r - c, 0.0), 12)
    return np.sum(wts * np.exp(-nodes), axis=-1) * exp_tail(0.0)


# ---------------------------------------------------------------------------
# spatial helpers for pair integrals over the window


def _common_w_integral(params: ModelParams, d, a1, a2):
    """Numeric integral over w in (0, 1] of the overlap of the two connection
    intervals at spatial distance d, with radii beta * ai * w^-gamma', for
    each pair (a1[k], a2[k]).  Returns an array of shape (len(a1), len(d)).

    Substitutes w = v^s, s = 1/(1-gamma'), and places panel edges at the two
    kinks v = min((b/d)^((1-gamma')/gamma'), 1), b = beta |a1 - a2| and
    beta (a1 + a2).  q = v^(gamma'/(1-gamma')) is both w^gamma' and, times s,
    the Jacobian dw/dv; as the overlap is homogeneous, the integrand is s
    times the overlap of radii beta * ai at distance d * q.  On the nested
    panel that overlap is the constant 2 beta min(a1, a2), so the panel is
    that constant times s * v_dif, and no radius cancels against d.  On the
    partial panel it is beta (a1 + a2) - d * q, which cancels, so q's
    exponent is not the rounded s - 1; the _OVERLAP_ORDER-node rule, whose
    weights sum to 2, runs on the vector of entries whose partial panel has
    positive width, elementwise, so no entry depends on the call's shape.
    """
    gp = params.gamma_prime
    s = 1.0 / (1.0 - gp)
    b_sum = params.beta * (a1 + a2)[:, None]
    b_dif = params.beta * np.abs(a1 - a2)[:, None]
    with np.errstate(over="ignore"):
        v_sum = np.minimum((b_sum / d) ** ((1.0 - gp) / gp), 1.0)
        v_dif = np.minimum((b_dif / d) ** ((1.0 - gp) / gp), 1.0)
    out = (2.0 * params.beta * np.minimum(a1, a2)[:, None]) * (s * v_dif)
    # The live entries by flat index, gathered by take and scattered by put,
    # which is exact because each entry is live at most once.
    flat = np.flatnonzero(v_sum > v_dif)
    p, k = np.divmod(flat, len(d))
    lo = v_dif.take(flat)
    half = 0.5 * (v_sum.take(flat) - lo)
    wq = np.zeros(len(flat))
    for node, weight in zip(*gauss_rule(_OVERLAP_ORDER)):
        wq += weight * (lo + half * (node + 1.0)) ** (gp / (1.0 - gp))
    out.put(flat, out.take(flat) + (2.0 * b_sum.take(p) - d.take(k) * wq) * (s * half))
    return out


def _pair_numeric(
    params: ModelParams,
    n: float,
    u_rule1,
    u_rule2,
    m1: int = 0,
    m2: int = 0,
    m3: int = 0,
) -> float:
    """Numeric (1/n) * integral over the squared window of
    |N1|^m1 * |N12| * |N2|^m2 * |x1 - x2|^m3 over positions and marks.

    Translation invariance reduces the double position integral to the
    distance d with the triangular weight (1 - d/n); the d-axis uses
    geometrically graded panels so the small-distance mass is resolved.
    The overlap |N12| is symmetric in the two radii, so when both mark
    rules share their nodes each unordered node pair is integrated once.
    """
    u1, wu1 = u_rule1
    u2, wu2 = u_rule2
    a1 = u1 ** (-params.gamma)
    a2 = u2 ** (-params.gamma)
    f1 = wu1 * spatial_size_quad(params, u1) ** m1
    f2 = wu2 * spatial_size_quad(params, u2) ** m2
    if np.array_equal(u1, u2):
        i, j = np.triu_indices(len(u1))
        pair_weight = np.where(i == j, f1[i] * f2[j], f1[i] * f2[j] + f1[j] * f2[i])
    else:
        i, j = (k.ravel() for k in np.indices((len(u1), len(u2))))
        pair_weight = f1[i] * f2[j]
    edges = np.concatenate([[0.0], n * 2.0 ** np.arange(-14.0, 1.0)])
    total = 0.0
    for k in range(len(edges) - 1):
        dn, dw = gl_panel(edges[k], edges[k + 1], 16)
        dn, dw = dn.ravel(), dw.ravel()
        g = _common_w_integral(params, dn, a1[i], a2[j])
        wgt = dw * (1.0 - dn / n) * dn**m3
        total += float(pair_weight @ g @ wgt)
    return 2.0 * total


def _weighted_pair_constants(params: ModelParams, m1: int, m2: int, m3: int):
    """The three constants of the weighted pair bound."""
    g, gp, beta = params.gamma, params.gamma_prime, params.beta
    c = (2.0 * beta) ** (2 + m1 + m2 + m3) / (
        (1 + m3) * (1.0 - gp) ** (m1 + m2) * (1.0 - (2 + m3) * gp)
    )
    cp = 1.0 / ((1.0 - (1 + m1) * g) * (1.0 - (1 + m2 + m3) * g))
    cpp = 1.0 / ((1.0 - (1 + m2) * g) * (1.0 - (1 + m1 + m3) * g))
    return c, cp, cpp


# ---------------------------------------------------------------------------
# parameter draws


def _draw_params(rng, g=(0.05, 0.9), gp=(0.05, 0.9), beta=(0.1, 1.0), n=1.0):
    return ModelParams(
        beta=float(rng.uniform(*beta)),
        gamma=float(rng.uniform(*g)),
        gamma_prime=float(rng.uniform(*gp)),
        n=n,
    )


# ---------------------------------------------------------------------------
# checks: each yields (value, reference) pairs for one draw


def _chk_spatial_size(rng):
    p = _draw_params(rng)
    u = float(rng.uniform(0.05, 1.0))
    yield spatial_size_quad(p, u), spatial_nbhd_size(p, u)


def _chk_spatial_size_mark_restricted(rng):
    p = _draw_params(rng)
    w = float(rng.uniform(0.05, 1.0))
    u_lo = float(rng.uniform(0.01, 0.9))
    u, wu = log_rule(u_lo)
    num = float(wu @ (2.0 * p.beta * u ** (-p.gamma) * w ** (-p.gamma_prime)))
    ref = (
        2.0
        * p.beta
        / (1.0 - p.gamma)
        * w ** (-p.gamma_prime)
        * (1.0 - u_lo ** (1.0 - p.gamma))
    )
    yield num, ref


def _chk_spatial_moment(rng):
    p = _draw_params(rng)
    alpha = float(rng.uniform(0.2, min(3.0, 0.95 / p.gamma)))
    length = float(rng.uniform(0.5, 3.0))
    num = length * spatial_moment_quad(p, alpha)
    ref = p.c_tilde**alpha * length / (1.0 - alpha * p.gamma)
    yield num, ref


def _chk_spatial_moment_mark_restricted(rng):
    p = _draw_params(rng)
    alpha = float(rng.uniform(0.2, 3.0))
    while abs(1.0 - alpha * p.gamma) < 0.05:
        alpha = float(rng.uniform(0.2, 3.0))
    u_lo = float(rng.uniform(0.02, 0.8))
    num = spatial_moment_quad(p, alpha, u_lo=u_lo)
    ref = (
        p.c_tilde**alpha
        * (1.0 - u_lo ** (1.0 - alpha * p.gamma))
        / (1.0 - alpha * p.gamma)
    )
    yield num, ref


def _chk_spatial_pair_size_bound(rng):
    p = _draw_params(rng, gp=(0.1, 0.9))
    u1, u2 = (float(v) for v in rng.uniform(0.1, 1.0, size=2))
    d = float(rng.uniform(0.3, 3.0))
    a1, a2 = (np.array([u ** (-p.gamma)]) for u in (u1, u2))
    num = float(_common_w_integral(p, np.array([d]), a1, a2)[0, 0])
    bound = (
        2.0
        * (2.0 * p.beta) ** (1.0 / p.gamma_prime)
        / (1.0 - p.gamma_prime)
        * d ** -(1.0 / p.gamma_prime - 1.0)
        * (u1 * u2) ** (-p.gamma / p.gamma_prime)
    )
    yield num, bound


def _chk_spatial_pair_integral(rng, restricted):
    n = 20.0
    p = _draw_params(rng, g=(0.05, 0.95), gp=(0.05, 0.45), n=n)
    if restricted:
        rule = log_rule(n ** -float(rng.uniform(0.2, 0.9)))
    else:
        rule = power_rule(p.gamma)
    num = _pair_numeric(p, n, rule, rule)
    bound = (2.0 * p.beta) ** 2 / (
        (1.0 - p.gamma) ** 2 * (1.0 - 2.0 * p.gamma_prime)
    )
    yield num, bound


def _chk_spatial_profile_moment_bound(rng):
    n = 3.0
    m = int(rng.integers(2, 4))
    p = _draw_params(rng, gp=(0.05, 1.0 / m - 0.05), n=n)
    num = window_pair_spatial_quad(p, n, float(m))
    bound = (2.0 * p.beta / (1.0 - p.gamma)) ** m * n / (1.0 - m * p.gamma_prime)
    yield num, bound


def _chk_spatial_weighted_pair_bound(rng):
    n = 10.0
    m1, m2, m3 = (int(v) for v in rng.integers(0, 3, size=3))
    g_hi = 1.0 / (1 + max(m1, m2) + m3) - 0.03
    gp_hi = 1.0 / (2 + m3) - 0.03
    p = _draw_params(rng, g=(0.05, g_hi), gp=(0.05, gp_hi), n=n)
    num = _pair_numeric(
        p,
        n,
        power_rule((1 + m1) * p.gamma),
        power_rule((1 + m2) * p.gamma),
        m1=m1,
        m2=m2,
        m3=m3,
    )
    c, cp, cpp = _weighted_pair_constants(p, m1, m2, m3)
    yield num, c * (cp + cpp)


def _chk_spatial_weighted_pair_mark_restricted(rng):
    n = 10.0
    m1, m2, m3 = (int(v) for v in rng.integers(0, 3, size=3))
    gp_hi = 1.0 / (2 + m3) - 0.03
    p = _draw_params(rng, g=(0.55, 0.9), gp=(0.05, gp_hi), n=n)
    u_m = float(rng.uniform(0.05, 0.8))
    rule = log_rule(u_m)
    num = _pair_numeric(p, n, rule, rule, m1=m1, m2=m2, m3=m3)
    c, cp, cpp = _weighted_pair_constants(p, m1, m2, m3)
    g = p.gamma
    e1 = max((1 + m2 + m3) * g - 1.0, 0.0) + max((1 + m1) * g - 1.0, 0.0)
    e2 = max((1 + m2) * g - 1.0, 0.0) + max((1 + m1 + m3) * g - 1.0, 0.0)
    yield num, c * (abs(cp) * u_m**-e1 + abs(cpp) * u_m**-e2)


def _chk_temporal_size(rng):
    b = float(rng.uniform(-2.0, 1.0))
    life = float(rng.uniform(0.1, 3.0))
    t = float(rng.uniform(0.0, 1.0))
    v = Vertex(0.0, 0.5, b, life)
    r, wr = line_rule([b, t, b + life], b - 0.5, max(t, b + life) + 0.5)
    num = float(wr @ ((b <= r) & (r <= t) & (t <= b + life)))
    yield num, temporal_nbhd_size(v, t)


def _chk_temporal_profile(rng):
    r = float(rng.uniform(-2.0, 1.5))
    t = float(rng.uniform(0.0, 1.0))
    num = temporal_profile_quad(r, t)
    ref = math.exp(-(t - r)) if r <= t else 0.0
    yield num, ref


def _chk_temporal_moment(rng):
    alpha = float(rng.uniform(0.2, 4.0))
    t = float(rng.uniform(0.0, 1.0))
    num = temporal_weighted_quad(lambda b: (t - b) ** alpha, t, lambda b: t - b)
    yield num, math.gamma(alpha + 1.0)


def _profile_power_integral(alpha: float, t: float) -> float:
    """Numeric integral over r of the activity profile at t raised to alpha,
    which at lag a is e^-a times the birth and residual half-line masses."""
    base = exp_tail(0.0) ** 2
    extent = max(HALF_LINE_CUTOFF, 32.0 / alpha)
    r, wr = line_rule(lo=t - extent, hi=t)
    return float(np.sum(wr * (np.exp(-(t - r)) * base) ** alpha))


def _chk_temporal_cap_profile(rng):
    t = float(rng.uniform(0.0, 1.0))
    m = int(rng.integers(1, 4))
    yield _profile_power_integral(float(m), t), 1.0 / m


def _chk_temporal_profile_moment(rng):
    t = float(rng.uniform(0.0, 1.0))
    alpha = float(rng.uniform(0.2, 3.0))
    yield _profile_power_integral(alpha, t), 1.0 / alpha


def _chk_temporal_chain_bound(rng):
    a1 = float(rng.uniform(0.2, 2.0))
    a2 = float(rng.uniform(0.2, 2.0))
    t1, t2 = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
    yield _chain_sum(a1, a2, t1, t2), math.gamma(a1 + 1.0) * math.gamma(a2 + 2.0)


def _chain_sum(a1: float, a2: float, t1: float, t2: float) -> float:
    """Sum over node pairs (i, j) of half_line_rule of f1_i f2_j cap_ij,
    with f_k = ws s^a_k exp_tail(s) and cap_ij = (min(t1, t2) - max(t1 - s_i,
    t2 - s_j))^+.

    cap_ij is min(x_i, y_j) with x = (m - t1 + s)^+ and y = (m - t2 + s)^+,
    m = min(t1, t2), and both rise with the sorted nodes s.  So row i takes
    y_j below k_i = searchsorted(y, x_i) and x_i from k_i on: a prefix sum
    of f2 y plus x_i times a suffix sum of f2, with no (nodes, nodes) array.
    """
    s, ws = half_line_rule()
    m = min(t1, t2)
    x = np.maximum(m - t1 + s, 0.0)
    y = np.maximum(m - t2 + s, 0.0)
    f1 = ws * s**a1 * exp_tail(s)
    f2 = ws * s**a2 * exp_tail(s)
    k = np.searchsorted(y, x)
    prefix = np.concatenate(([0.0], np.cumsum(f2 * y)))
    suffix = np.append(np.cumsum(f2[::-1])[::-1], 0.0)
    return float(f1 @ (prefix[k] + x * suffix[k]))


def _chk_pm_size(rng):
    b = float(rng.uniform(-2.0, 1.0))
    life = float(rng.uniform(0.1, 3.0))
    t = float(rng.uniform(0.0, 1.0))
    v = Vertex(0.0, 0.5, b, life)
    r, wr = line_rule([b, b + life, t], b - 0.5, max(t, b + life) + 0.5)
    num_plus = float(wr @ ((b <= r) & (r <= min(b + life, t))))
    num_minus = float(wr @ ((b <= r) & (r <= b + life) & (b + life <= t)))
    yield num_plus, pm_temporal_nbhd_size(v, t, "plus")
    yield num_minus, pm_temporal_nbhd_size(v, t, "minus")


def _chk_pm_profile(rng):
    r = float(rng.uniform(-2.0, 1.2))
    t = float(rng.uniform(0.2, 1.0))
    ref_plus = (math.exp(r) if r <= 0 else 1.0) if r <= t else 0.0
    if r <= 0:
        ref_minus = math.exp(r) - math.exp(-(t - r))
    elif r <= t:
        ref_minus = 1.0 - math.exp(-(t - r))
    else:
        ref_minus = 0.0
    yield float(_pm_profile_inner(r, -math.inf, t, "plus")), ref_plus
    yield float(_pm_profile_inner(r, -math.inf, t, "minus")), ref_minus


def _chk_pm_moment(rng):
    t = float(rng.uniform(0.1, 1.0))
    m = int(rng.integers(1, 4))
    yield _pm_moment_numeric(float(m), t, "plus"), math.factorial(m) * (t + 1.0)
    yield _pm_moment_numeric(float(m), t, "minus"), math.factorial(m) * t


def _pm_moment_bound(alpha: float, t: float) -> float:
    """Closed-form bound 2 c(alpha) t + Gamma(alpha + 1) on both plus/minus
    moments, with c(alpha) = (2 alpha)^alpha e^-alpha."""
    c = (2.0 * alpha) ** alpha * math.exp(-alpha)
    return 2.0 * c * t + math.gamma(alpha + 1.0)


def _chk_pm_moment_bound(rng):
    t = float(rng.uniform(0.05, 1.0))
    alpha = float(rng.uniform(0.05, 3.0))
    bound = _pm_moment_bound(alpha, t)
    yield _pm_moment_numeric(alpha, t, "plus"), bound
    yield _pm_moment_numeric(alpha, t, "minus"), bound


def _time_pair(rng):
    """Two ordered times in [0, 1], pulled at least 1e-3 apart below 1."""
    t1, t2 = sorted(float(v) for v in rng.uniform(0.0, 1.0, size=2))
    if t2 - t1 < 1e-3:
        t2 = min(1.0, t1 + 1e-3)
    return t1, t2


def _chk_pm_difference_moment_bound(rng):
    t1, t2 = _time_pair(rng)
    m = int(rng.integers(1, 4))
    bound = math.factorial(m + 1) * (t2 - t1)
    yield _pm_difference_moment_numeric(m, t1, t2, "plus"), bound
    yield _pm_difference_moment_numeric(m, t1, t2, "minus"), bound


def _chk_pm_difference_profile_plus(rng):
    t1, t2 = _time_pair(rng)
    m = int(rng.integers(1, 4))
    r, wr = gl_panel(t1, t2, 24)
    r, wr = r.ravel(), wr.ravel()
    inner = _pm_profile_inner(r, t1, t2, "plus")
    yield float(np.sum(wr * inner**m)), t2 - t1


def _chk_pm_difference_profile_minus_bound(rng):
    t1, t2 = _time_pair(rng)
    m = int(rng.integers(1, 4))
    r, wr = line_rule(breaks=[0.0, t1], lo=t2 - HALF_LINE_CUTOFF, hi=t2)
    inner = _pm_profile_inner(r, t1, t2, "minus")
    yield float(np.sum(wr * inner**m)), t2 - t1


def _chk_pm_cap_integral(rng, sign):
    t = float(rng.uniform(0.1, 1.0))
    m = int(rng.integers(1, 4))
    r, wr = line_rule(breaks=[0.0], lo=t - HALF_LINE_CUTOFF, hi=t)
    inner = _pm_profile_inner(r, -math.inf, t, sign)
    yield float(np.sum(wr * inner**m)), 1.0 / m + t


def _chk_pm_chain_finite(rng):
    """Finiteness of the chained plus/minus moment integral, certified by a
    numeric evaluation of the dominating product (intersection <= second
    factor's neighborhood) against the product of its factors' closed-form
    bounds."""
    a1 = float(rng.uniform(0.0, 2.0))
    a2 = float(rng.uniform(0.0, 2.0))
    t1, t2 = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
    sign = "plus" if rng.random() < 0.5 else "minus"
    num = _pm_moment_numeric(a1, t1, sign) * _pm_moment_numeric(
        a2 + 1.0, t2, sign
    )
    yield num, _pm_moment_bound(a1, t1) * _pm_moment_bound(a2 + 1.0, t2)


def _jump_density(params: ModelParams, j):
    """The stable limit's jump intensity density c_tilde^(1/gamma) / gamma *
    j^(-1/gamma - 1)."""
    g = params.gamma
    return params.c_tilde ** (1.0 / g) / g * j ** (-1.0 / g - 1.0)


def _stable_mean_numeric(params: ModelParams, epsilon: float) -> float:
    """Numeric side of oracles.stable_mean: the first jump moment above the
    truncation threshold a = c_tilde * epsilon^gamma, times the mean age of
    an alive point.

    The j-axis [a, inf) is mapped onto (0, 1] by j = a/u, dj = j^2/a du,
    which makes the integrand a power of u of order 2 - 1/gamma < 1."""
    a = params.c_tilde * epsilon**params.gamma
    u, wu = power_rule(2.0 - 1.0 / params.gamma)
    j = a / u
    jmass = float(wu @ (j * _jump_density(params, j) * j * j / a))
    age = temporal_weighted_quad(lambda b: 0.5 - b, 0.5, lambda b: 0.5 - b)
    return jmass * age


def _stable_band_variance_numeric(params: ModelParams, eps_hi: float, eps_lo: float) -> float:
    """Numeric side of oracles.stable_band_variance: the second jump moment
    over the raw jump sizes [eps_lo, eps_hi), times the mean squared age of
    an alive point."""
    j, wj = log_rule(eps_lo, eps_hi)
    jmass = float(wj @ (j * j * _jump_density(params, j)))
    age2 = temporal_weighted_quad(lambda b: (0.5 - b) ** 2, 0.5, lambda b: 0.5 - b)
    return jmass * age2


def _chk_stable_mean(rng):
    p = _draw_params(rng, g=(0.55, 0.95))
    epsilon = float(10.0 ** rng.uniform(-3.0, 0.0))
    yield _stable_mean_numeric(p, epsilon), stable_mean(p, epsilon)


def _chk_stable_band_variance(rng):
    p = _draw_params(rng, g=(0.55, 0.95))
    eps_lo, eps_hi = sorted(float(v) for v in 10.0 ** rng.uniform(-3.0, 0.0, size=2))
    yield _stable_band_variance_numeric(p, eps_hi, eps_lo), stable_band_variance(p, eps_hi, eps_lo)


_CHECKS = [
    ("spatial-size", "equality", _chk_spatial_size),
    ("spatial-size-mark-restricted", "equality", _chk_spatial_size_mark_restricted),
    ("spatial-moment", "equality", _chk_spatial_moment),
    (
        "spatial-moment-mark-restricted",
        "equality",
        _chk_spatial_moment_mark_restricted,
    ),
    ("spatial-pair-size-bound", "bound", _chk_spatial_pair_size_bound),
    (
        "spatial-pair-integral-limit",
        "bound",
        partial(_chk_spatial_pair_integral, restricted=False),
    ),
    (
        "spatial-pair-integral-mark-restricted",
        "bound",
        partial(_chk_spatial_pair_integral, restricted=True),
    ),
    ("spatial-profile-moment-bound", "bound", _chk_spatial_profile_moment_bound),
    ("spatial-weighted-pair-bound", "bound", _chk_spatial_weighted_pair_bound),
    (
        "spatial-weighted-pair-mark-restricted",
        "bound",
        _chk_spatial_weighted_pair_mark_restricted,
    ),
    ("temporal-size", "equality", _chk_temporal_size),
    ("temporal-profile", "equality", _chk_temporal_profile),
    ("temporal-moment", "equality", _chk_temporal_moment),
    ("temporal-cap-profile", "equality", _chk_temporal_cap_profile),
    ("temporal-profile-moment", "equality", _chk_temporal_profile_moment),
    ("temporal-chain-bound", "bound", _chk_temporal_chain_bound),
    ("pm-size", "equality", _chk_pm_size),
    ("pm-profile", "equality", _chk_pm_profile),
    ("pm-moment", "equality", _chk_pm_moment),
    ("pm-moment-bound", "bound", _chk_pm_moment_bound),
    (
        "pm-difference-moment-bound",
        "bound",
        _chk_pm_difference_moment_bound,
    ),
    (
        "pm-difference-profile-plus",
        "equality",
        _chk_pm_difference_profile_plus,
    ),
    (
        "pm-difference-profile-minus-bound",
        "bound",
        _chk_pm_difference_profile_minus_bound,
    ),
    ("pm-cap-integral-plus", "equality", partial(_chk_pm_cap_integral, sign="plus")),
    (
        "pm-cap-integral-minus-bound",
        "bound",
        partial(_chk_pm_cap_integral, sign="minus"),
    ),
    ("pm-chain-finite", "bound", _chk_pm_chain_finite),
    ("stable-mean", "equality", _chk_stable_mean),
    ("stable-band-variance", "equality", _chk_stable_band_variance),
]


def lemma_catalog_check(
    draws: int = 20, master_seed: int = 20240817
) -> list[CatalogRecord]:
    """Run every catalog check with the given number of randomized draws."""
    records = []
    for index, (lemma_id, kind, fn) in enumerate(_CHECKS):
        rng = stream_generator(master_seed, index)
        max_err = 0.0
        max_ratio = 0.0
        violations = 0
        for _ in range(draws):
            for value, reference in fn(rng):
                # max() would drop a NaN, which must show in the record
                if kind == "equality":
                    err = abs(value - reference) / max(abs(reference), 1e-9)
                    if err > max_err or math.isnan(err):
                        max_err = err
                    continue
                ratio = value / reference
                if ratio > max_ratio or math.isnan(ratio):
                    max_ratio = ratio
                if not value <= reference * (1.0 + BOUND_SLACK) + 1e-12:
                    violations += 1
        records.append(
            CatalogRecord(
                lemma_id=lemma_id,
                kind=kind,
                draws=draws,
                max_rel_err=max_err,
                bound_violations=violations,
                max_bound_ratio=max_ratio,
            )
        )
    return records
