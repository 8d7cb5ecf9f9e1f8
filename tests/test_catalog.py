"""Quadrature verification of the identity/bound catalog."""

import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from drchm import catalog, experiments
from drchm.catalog import (
    BOUND_SLACK,
    EQUALITY_TOLERANCE,
    _chain_sum,
    _chk_pm_chain_finite,
    _common_w_integral,
    _pair_numeric,
    _pm_profile_inner,
)
from drchm.experiments import ExperimentConfig, run_oracle_report
from drchm.model import ModelParams
from drchm.oracles import exp_tail, gl_panel, half_line_rule, log_rule, power_rule
from drchm.rng import stream_generator


def test_catalog_complete(catalog_records):
    assert len(catalog_records) == 28
    kinds = {r.kind for r in catalog_records}
    assert kinds == {"equality", "bound"}


def test_all_equalities_match(catalog_records):
    for rec in catalog_records:
        if rec.kind == "equality":
            assert rec.max_rel_err <= EQUALITY_TOLERANCE, rec.lemma_id
            assert rec.draws >= 20


def test_no_bound_violations(catalog_records):
    for rec in catalog_records:
        if rec.kind == "bound":
            assert rec.bound_violations == 0, rec.lemma_id
            assert rec.draws >= 20


def test_all_passed(catalog_records):
    assert all(rec.passed for rec in catalog_records)


def _equality_with_nan(nan_at, rng):
    """An equality check whose pair nan_at is NaN in every draw; every other
    pair errs by k * 1e-9, inside the tolerance."""
    for k in range(4):
        yield (math.nan if k == nan_at else 1.0 + k * 1e-9), 1.0


@pytest.mark.parametrize("nan_at", [0, 2])
def test_nan_fails_its_equality_record(nan_at, monkeypatch):
    # max() drops a NaN error, wherever it sits, and a later finite error
    # must not replace it; the record must fail
    checks = [
        ("nan-equality", "equality", partial(_equality_with_nan, nan_at)),
        ("nan-bound", "bound", lambda rng: iter([(math.nan, 1.0)])),
    ]
    monkeypatch.setattr(catalog, "_CHECKS", checks)
    equality, bound = catalog.lemma_catalog_check(draws=3)
    assert math.isnan(equality.max_rel_err)
    assert not equality.passed
    assert bound.bound_violations == 3 and not bound.passed
    assert equality.max_bound_ratio == 0.0
    assert math.isnan(bound.max_bound_ratio)


def _bound_ratios(values, rng):
    """A bound check whose draws yield value / reference = values[k]."""
    for v in values:
        yield 2.0 * v, 2.0


@pytest.mark.parametrize(
    "values, expected",
    [([0.25, 0.994, 0.5], 0.994), ([0.5, 1.5], 1.5), ([0.5, math.nan, 0.9], math.nan)],
)
def test_bound_ratio_is_the_largest(values, expected, monkeypatch):
    # the largest value / reference over every draw, violated or not; a NaN
    # stays, whatever follows it
    checks = [("ratio-bound", "bound", partial(_bound_ratios, values))]
    monkeypatch.setattr(catalog, "_CHECKS", checks)
    (record,) = catalog.lemma_catalog_check(draws=2)
    assert record.max_rel_err == 0.0
    assert record.bound_violations == 2 * sum(not v <= 1.0 for v in values)
    if math.isnan(expected):
        assert math.isnan(record.max_bound_ratio)
    else:
        assert record.max_bound_ratio == expected


@pytest.mark.parametrize("nan_first", [True, False])
def test_oracle_report_keeps_a_nan_error(nan_first, tmp_path, monkeypatch):
    nan = catalog.CatalogRecord("nan-equality", "equality", 20, math.nan, 0)
    fine = catalog.CatalogRecord("fine-equality", "equality", 20, 1e-9, 0)
    records = [nan, fine] if nan_first else [fine, nan]
    out = _oracle_report(0.7, records, tmp_path, monkeypatch)
    summary = out["records"][-1]
    assert math.isnan(summary["max_equality_rel_err"])
    assert summary["failures"] == ["nan-equality"]
    # both files are strict JSON, with the NaN error written as null
    report, written = (
        [json.loads(line, parse_constant=_reject) for line in Path(path).read_text().splitlines()]
        for path in (out["report"], out["catalog"])
    )
    assert report[-1]["max_equality_rel_err"] is None
    errors = {r["lemma_id"]: r["max_rel_err"] for r in written}
    assert errors == {"nan-equality": None, "fine-equality": 1e-9}


def _oracle_report(gamma, catalog_records, tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "lemma_catalog_check", lambda master_seed: catalog_records)
    cfg = ExperimentConfig.from_dict(
        {
            "model": {"beta": 0.25, "gamma": gamma, "gamma_prime": 0.2, "n": 50.0},
            "kind": "oracle-report",
            "out_dir": str(tmp_path),
        }
    )
    return run_oracle_report(cfg)


def _reject(token):
    raise ValueError(f"non-strict JSON token {token}")


def test_jsonl_output(catalog_records, tmp_path, monkeypatch):
    # the oracle report writes the catalog file; a stable model has no
    # covariance adjudication
    out = _oracle_report(0.7, catalog_records, tmp_path, monkeypatch)
    lines = Path(out["catalog"]).read_text().strip().split("\n")
    assert len(lines) == len(catalog_records)
    first = json.loads(lines[0])
    assert set(first) == {
        "lemma_id",
        "kind",
        "draws",
        "max_rel_err",
        "bound_violations",
        "max_bound_ratio",
        "passed",
    }


def test_gaussian_covariance_adjudication(tmp_path, monkeypatch):
    out = _oracle_report(0.2, [], tmp_path, monkeypatch)
    lines = Path(out["report"]).read_text().strip().split("\n")
    records = [json.loads(line, parse_constant=_reject) for line in lines]
    adjudication = [r for r in records if r["section"] == "covariance_adjudication"]
    assert [r["lag"] for r in adjudication] == [0.0, 0.2, 0.5]
    for rec in adjudication:
        assert rec["adjudicated_matches"] is True
        assert rec["printed_covariance_matches"] is False
    assert adjudication[0]["printed_variance_matches"] is False
    assert records[-1]["section"] == "catalog_summary"


def _all_pairs_numeric(params, n, rule, m1, m2, m3):
    """_pair_numeric summed over every ordered node pair, with no symmetry,
    and its mark factors from a w-mass of its own, not spatial_size_quad."""
    u, wu = rule
    a = u ** (-params.gamma)
    w, ww = power_rule(params.gamma_prime)
    w_mass = float(np.sum(ww * w**-params.gamma_prime))
    f1 = wu * (2.0 * params.beta * a * w_mass) ** m1
    f2 = wu * (2.0 * params.beta * a * w_mass) ** m2
    i, j = (k.ravel() for k in np.indices((len(u), len(u))))
    edges = np.concatenate([[0.0], n * 2.0 ** np.arange(-14.0, 1.0)])
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        dn, dw = (x.ravel() for x in gl_panel(lo, hi, 16))
        g = _common_w_integral(params, dn, a[i], a[j])
        wgt = dw * (1.0 - dn / n) * dn**m3
        total += float(np.einsum("p,pk,k->", f1[i] * f2[j], g, wgt))
    return 2.0 * total


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    gamma=st.floats(0.05, 0.3),
    gamma_prime=st.floats(0.05, 0.2),
    beta=st.floats(0.1, 1.0),
    ms=st.tuples(*[st.integers(0, 2)] * 3),
    u_lo=st.one_of(st.none(), st.floats(0.05, 0.8)),
)
def test_pair_numeric_triangle_equals_all_pairs(gamma, gamma_prime, beta, ms, u_lo):
    # one mark rule passed twice takes each unordered node pair once
    params = ModelParams(beta=beta, gamma=gamma, gamma_prime=gamma_prime, n=10.0)
    rule = power_rule((1 + ms[0]) * gamma) if u_lo is None else log_rule(u_lo)
    m1, m2, m3 = ms
    value = _pair_numeric(params, 10.0, rule, rule, m1=m1, m2=m2, m3=m3)
    assert value == pytest.approx(
        _all_pairs_numeric(params, 10.0, rule, m1, m2, m3), rel=1e-12
    )


def _minus_profile_by_panels(r, t1, t2):
    """The minus profile as one l-panel per r and half-line node s."""
    r = np.asarray(r, dtype=float)[..., None]
    s, ws = half_line_rule()
    lo = s + np.maximum(np.maximum(t1 - r, -r), 0.0)
    lo = np.maximum(lo, s)
    hi = np.maximum(s + (t2 - r), lo)
    nodes, wts = gl_panel(lo, hi, 12)
    return np.sum(np.sum(wts * np.exp(-nodes), axis=-1) * ws, axis=-1)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    t2=st.floats(0.02, 1.0),
    t1_frac=st.one_of(st.none(), st.floats(0.0, 1.0)),
    below=st.floats(1e-6, 35.0),
    between=st.floats(0.0, 1.0),
    above=st.floats(1e-6, 5.0),
)
def test_minus_profile_factorizes(t2, t1_frac, below, between, above):
    # r below 0, between t1 (or 0 when t1 = -inf) and t2, and above t2.  The
    # reference forms each panel width as (s + t2 - r) - (s + c), which
    # loses about one ulp of s, so widths stay >= 0.01 here
    t1 = -math.inf if t1_frac is None else t1_frac * (t2 - 0.01)
    start = 0.0 if t1_frac is None else t1
    r = np.array([-below, start + between * (t2 - 0.01 - start), t2 + above])
    value = _pm_profile_inner(r, t1, t2, "minus")
    reference = _minus_profile_by_panels(r, t1, t2)
    assert value[2] == 0.0
    np.testing.assert_allclose(value, reference, rtol=1e-13, atol=0.0)


def _plus_profile_by_half_line(r, t1, t2):
    """The plus profile's former form, kept as its reference: the half-line
    sum over the age s of exp_tail(s + max(-r, 0))."""
    r = np.asarray(r, dtype=float)
    s, ws = half_line_rule()
    lo = np.maximum(s, s - r[..., None])
    val = np.sum(ws * exp_tail(lo), axis=-1)
    return np.where((r > t1) & (r <= t2), val, 0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    t2=st.floats(0.02, 1.0),
    t1_frac=st.one_of(st.none(), st.floats(-3.0, 0.99)),
    below=st.floats(1e-6, 35.0),
    between=st.floats(0.0, 1.0),
    above=st.floats(1e-6, 5.0),
)
def test_plus_profile_factorizes(t2, t1_frac, below, between, above):
    # r below 0, inside (t1, t2], at t2 and above t2, and at a finite t1,
    # which may lie below 0, so that r below 0 can fall inside or outside
    t1 = -math.inf if t1_frac is None else t1_frac * t2
    start = -below if t1_frac is None else t1
    r = np.array([-below, start + between * (t2 - start), t2, t2 + above])
    if t1_frac is not None:
        r = np.append(r, t1)
    value = _pm_profile_inner(r, t1, t2, "plus")
    outside = (r <= t1) | (r > t2)
    assert outside[3] and (t1_frac is None or outside[4])
    assert np.all(value[outside] == 0.0)
    np.testing.assert_allclose(
        value, _plus_profile_by_half_line(r, t1, t2), rtol=1e-13, atol=0.0
    )


@pytest.mark.parametrize("width", [2.0**-40, 2.0**-27, 2.0**-13])
def test_minus_profile_narrow_panels(width):
    # narrow panels against the closed form e^-c (1 - e^-width), times the
    # numeric half-line mass of e^-s; dyadic widths keep t2 - width exact
    t2 = 0.5
    r = np.array([t2 - width, -2.0])
    t1 = t2 - width
    value = _pm_profile_inner(r, t1, t2, "minus")
    c = np.maximum(t1 - r, 0.0)
    expected = np.exp(-c) * -np.expm1(-width) * exp_tail(0.0)
    np.testing.assert_allclose(value, expected, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("a", np.linspace(1.0, 5.0, 17))
def test_powexp_from_zero_equals_scipy(a):
    # Gamma(a) P(a, hi) from scipy, hi from 1e-300 to 36 and densely across
    # the series/fraction switch at 6; where scipy's value underflows to 0,
    # the numpy one must be subnormal or 0 as well
    hi = np.concatenate([np.geomspace(1e-300, 36.0, 400), np.linspace(5.0, 7.0, 41)])
    value = catalog._powexp(a - 1.0, 0.0, hi)
    expected = math.gamma(a) * special.gammainc(a, hi)
    normal = expected >= np.finfo(float).tiny
    np.testing.assert_allclose(value[normal], expected[normal], rtol=5e-13, atol=0.0)
    assert np.all(value[~normal] < np.finfo(float).tiny)


@pytest.mark.parametrize("width", [1e-3, 1e-2, 0.1, 1.0, 10.0])
def test_powexp_narrow_far_out(width):
    # at alpha = 0 the integral is e^-lo (1 - e^-width); far out it is a
    # difference of two small upper functions, not of two values near 1
    # (at width 1e-3, scipy's P(1, hi) - P(1, lo) is 19 % off at lo = 30
    # and 0 at lo = 34)
    lo = np.concatenate([[0.0, 0.5, 1.0], np.linspace(6.0, 40.0, 69), [29.9, 30.1, 34.0]])
    value = catalog._powexp(0.0, lo, lo + width)
    expected = np.exp(-lo) * -np.expm1(-width)
    np.testing.assert_allclose(value, expected, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5, 1.7, 3.0, 4.0])
def test_powexp_adds_across_the_switch(alpha):
    left = catalog._powexp(alpha, 5.5, 6.0)
    right = catalog._powexp(alpha, 6.0, 6.5)
    whole = catalog._powexp(alpha, 5.5, 6.5)
    np.testing.assert_allclose(left + right, whole, rtol=1e-13, atol=0.0)


def _overlap_three_powers(params, d, a1, a2, order=16):
    """_common_w_integral with w^-gamma' and the Jacobian as separate powers."""
    gp = params.gamma_prime
    s = 1.0 / (1.0 - gp)
    A1, A2, D = a1[:, None], a2[:, None], d[None, :]
    with np.errstate(over="ignore"):
        w_sum = np.minimum((params.beta * (A1 + A2) / D) ** (1.0 / gp), 1.0)
        w_dif = np.minimum((params.beta * np.abs(A1 - A2) / D) ** (1.0 / gp), 1.0)
    v_edges = (np.zeros_like(w_sum), w_dif ** (1.0 - gp), w_sum ** (1.0 - gp))
    out = np.zeros(w_sum.shape)
    for lo_e, hi_e in ((v_edges[0], v_edges[1]), (v_edges[1], v_edges[2])):
        nodes, wts = gl_panel(lo_e, hi_e, order)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            wp = (nodes**s) ** (-gp)
            r1 = params.beta * A1[..., None] * wp
            r2 = params.beta * A2[..., None] * wp
            ov = np.clip(
                np.minimum(r1, D[..., None] + r2) - np.maximum(-r1, D[..., None] - r2),
                0.0,
                None,
            )
            term = np.sum(wts * s * nodes ** (s - 1.0) * ov, axis=-1)
        out += np.where(hi_e > lo_e, term, 0.0)
    return out


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    gamma_prime=st.floats(0.05, 0.9),
    beta=st.floats(0.1, 1.0),
    a=st.lists(st.floats(1.0, 5.0), min_size=3, max_size=3),
    far=st.floats(1.5, 4.0),
)
def test_common_w_integral_one_power(gamma_prime, beta, a, far):
    # pairs with a1 == a2 (zero w_dif) and a1 != a2; distances from tiny to
    # past beta * (a1 + a2), where w_sum < 1
    params = ModelParams(beta=beta, gamma=0.3, gamma_prime=gamma_prime, n=10.0)
    a1 = np.array([a[0], a[0], a[1]])
    a2 = np.array([a[0], a[1], a[2]])
    d = np.array([1e-12, 1e-6, 0.3, 1.0, far * beta * (a[0] + a[1])])
    value = _common_w_integral(params, d, a1, a2)
    reference = _overlap_three_powers(params, d, a1, a2)
    assert np.all(reference > 0.0)
    np.testing.assert_allclose(value, reference, rtol=1e-13, atol=0.0)


def test_common_w_integral_where_the_exponent_rounds():
    # near gamma' = 0.05 the partial panel's 2 beta (a1 + a2) - d sum w q
    # cancels and amplifies any error in the node power's exponent: here
    # 1/(1 - gamma') - 1 is 2.2e-15 relative off gamma'/(1 - gamma'), which
    # put the value 1.2e-13 off the reference
    params = ModelParams(beta=0.6011954296285025, gamma=0.05804904716502435, gamma_prime=0.052149628245230686, n=20.0)
    d = np.array([19.94700467495825])
    a1, a2 = np.array([1.0036097148624716]), np.array([1.0220983540945423])
    value = _common_w_integral(params, d, a1, a2)
    reference = _overlap_three_powers(params, d, a1, a2)
    np.testing.assert_allclose(value, reference, rtol=1e-13, atol=0.0)


def _pair_distances(n):
    """The 240 distances at which _pair_numeric calls the overlap kernel."""
    edges = np.concatenate([[0.0], n * 2.0 ** np.arange(-14.0, 1.0)])
    return np.concatenate([gl_panel(lo, hi, 16)[0].ravel() for lo, hi in zip(edges[:-1], edges[1:])])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    shared=st.booleans(),
    gamma=st.floats(0.05, 0.45),
    gamma_prime=st.floats(0.05, 0.9),
    beta=st.floats(0.1, 1.0),
    n=st.sampled_from([3.0, 10.0, 20.0]),
)
def test_common_w_integral_at_catalog_shapes(shared, gamma, gamma_prime, beta, n):
    # the 300 unordered node pairs of power_rule(gamma), or the 576 pairs of
    # it and power_rule(2 gamma), at the 240 distances of _pair_numeric; the
    # reference runs one distance panel at a time to keep its arrays small
    params = ModelParams(beta=beta, gamma=gamma, gamma_prime=gamma_prime, n=n)
    u1 = power_rule(gamma)[0]
    u2 = u1 if shared else power_rule(2.0 * gamma)[0]
    if shared:
        i, j = np.triu_indices(len(u1))
    else:
        i, j = (k.ravel() for k in np.indices((len(u1), len(u2))))
    a1, a2 = u1[i] ** -gamma, u2[j] ** -gamma
    d = _pair_distances(n)
    assert (len(a1), len(d)) == ((300 if shared else 576), 240)
    value = _common_w_integral(params, d, a1, a2)
    reference = np.hstack([_overlap_three_powers(params, d[k : k + 16], a1, a2) for k in range(0, 240, 16)])
    np.testing.assert_allclose(value, reference, rtol=1e-13, atol=0.0)


def _overlap_pairs(shared):
    """(a1, a2) pairs as _pair_numeric forms them: the unordered node pairs
    of one mark rule, or every pair of two distinct rules."""
    gamma = 0.3
    u1 = power_rule(gamma)[0]
    u2 = u1 if shared else log_rule(0.05)[0]
    if shared:
        i, j = np.triu_indices(len(u1))
    else:
        i, j = (k.ravel() for k in np.indices((len(u1), len(u2))))
    a1, a2 = u1[i] ** -gamma, u2[j] ** -gamma
    return a1, a2


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
@pytest.mark.parametrize("distances", [1, 240])
@pytest.mark.parametrize("pairs", [None, 0, 1], ids=["all", "0", "1"])
def test_overlap_over_distances_equals_single_distances(shared, distances, pairs):
    # one call over a distance array is the column stack of one call per
    # distance, bit for bit: 300 unordered or 576 ordered pairs, no pair, or
    # one, at one distance (the spatial-pair-size-bound path) or at 240
    params = ModelParams(beta=0.4, gamma=0.3, gamma_prime=0.35, n=10.0)
    d = np.array([1.7]) if distances == 1 else np.geomspace(1e-4, 10.0, distances)
    a1, a2 = (a[:pairs] for a in _overlap_pairs(shared))
    value = _common_w_integral(params, d, a1, a2)
    columns = [_common_w_integral(params, d[k : k + 1], a1, a2) for k in range(distances)]
    assert value.shape == (len(a1), distances)
    np.testing.assert_array_equal(value, np.hstack(columns))


def _live_entries(params, d, a1, a2):
    """Number of (pair, distance) entries whose partial panel has positive
    width, that is whose kinks satisfy v- < v+, each one power of b / d."""
    e = (1.0 - params.gamma_prime) / params.gamma_prime
    v_sum = np.minimum((params.beta * (a1 + a2)[:, None] / d) ** e, 1.0)
    v_dif = np.minimum((params.beta * np.abs(a1 - a2)[:, None] / d) ** e, 1.0)
    return int(np.count_nonzero(v_sum > v_dif))


@pytest.mark.parametrize(
    "pairs, distances, live",
    [(8, 8, 0), (8, 25, 24), (10, 7, 70), (41, 25, 1025)],
    ids=["none", "few", "all-small", "all-large"],
)
def test_overlap_live_entries_equal_single_distances(pairs, distances, live):
    # radii 1 and 9 at beta 0.4 are nested below d = 3.2, and equal radii are
    # live at every distance: no live entry, the 3 distances above 3.2 of 25
    # up to 10, and every entry, against one call per distance, bit for bit
    params = ModelParams(beta=0.4, gamma=0.3, gamma_prime=0.35, n=10.0)
    if live == pairs * distances:
        a1 = a2 = np.geomspace(1.0, 5.0, pairs)
        d = np.geomspace(1e-3, 10.0, distances)
    else:
        a1, a2 = np.tile([1.0, 9.0], pairs // 2), np.tile([9.0, 1.0], pairs // 2)
        d = np.geomspace(1e-3, 3.0 if live == 0 else 10.0, distances)
    assert _live_entries(params, d, a1, a2) == live
    value = _common_w_integral(params, d, a1, a2)
    columns = [_common_w_integral(params, d[k : k + 1], a1, a2) for k in range(distances)]
    assert value.tobytes() == np.hstack(columns).tobytes()


def test_overlap_memory_is_bounded():
    # 625 pairs at 16 distances, all 10 000 entries live: the partial panels
    # are one pass over a vector of the 10 000 live entries, so the traced
    # peak of one call is about 1.06 MB, the flat indices of the live
    # entries included; one (live, 16) array of nodes would add 1.3 MB
    params = ModelParams(beta=0.4, gamma=0.3, gamma_prime=0.35, n=10.0)
    a = np.geomspace(1.0, 5.0, 25)
    i, j = (k.ravel() for k in np.indices((25, 25)))
    d = np.geomspace(2.0, 10.0, 16)
    assert _live_entries(params, d, a[i], a[j]) == 10_000
    _common_w_integral(params, d, a[i], a[j])
    tracemalloc.start()
    try:
        _common_w_integral(params, d, a[i], a[j])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _overlap_closed_form(params, d, a1, a2):
    """Closed-form w-integral of the interval overlap, for reference only:
    with A = beta (a1 + a2), B = beta |a1 - a2|, m = beta min(a1, a2),
    p = 1 - gamma' and the kinks w+- = min((A or B / d)^(1/gamma'), 1), it
    is 2m w-^p / p (nested) + A (w+^p - w-^p) / p - d (w+ - w-) (partial)."""
    gp = params.gamma_prime
    p = 1.0 - gp
    a1, a2, d = a1[:, None], a2[:, None], d[None, :]
    big = params.beta * (a1 + a2)
    small = params.beta * np.abs(a1 - a2)
    with np.errstate(over="ignore"):
        w_plus = np.minimum((big / d) ** (1.0 / gp), 1.0)
        w_minus = np.minimum((small / d) ** (1.0 / gp), 1.0)
    nested = 2.0 * params.beta * np.minimum(a1, a2) * w_minus**p / p
    return nested + big * (w_plus**p - w_minus**p) / p - d * (w_plus - w_minus)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    gamma_prime=st.floats(0.05, 0.9),
    beta=st.floats(0.1, 1.0),
    a_small=st.floats(1e-3, 10.0),
    ratio=st.floats(1.5, 1e200),
    frac=st.floats(1e-12, 0.99),
)
def test_common_w_integral_nested_matches_closed_form(gamma_prime, beta, a_small, ratio, frac):
    # below d = beta |a1 - a2| both kinks clip to 1: the intervals are nested
    # for every w, the partial panel is dead, and the one-node nested panel
    # is exact, also for a radius far below d (a1 >> d >> a2)
    params = ModelParams(beta=beta, gamma=0.3, gamma_prime=gamma_prime, n=10.0)
    a1 = np.array([a_small * ratio, a_small])
    a2 = np.array([a_small, a_small * ratio])
    gap = beta * (a_small * ratio - a_small)
    d = np.array([5e-324, 1e-300, 1e-6 * gap, frac * gap])
    value = _common_w_integral(params, d, a1, a2)
    reference = _overlap_closed_form(params, d, a1, a2)
    assert np.all(reference > 0.0)
    np.testing.assert_allclose(value, reference, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("gamma_prime", [0.05, 0.9])
def test_common_w_integral_edge_distances(gamma_prime):
    # distances from the smallest subnormal to 1e300 and radii up to 1e200:
    # every value is finite and >= 0, zero-width panels give 0, and nothing
    # overflows or warns
    params = ModelParams(beta=0.5, gamma=0.3, gamma_prime=gamma_prime, n=10.0)
    a = np.array([1e-3, 1.0, 1e200])
    i, j = (k.ravel() for k in np.indices((3, 3)))
    d = np.array([5e-324, 1e-300, 1e6, 1e300])
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        value = _common_w_integral(params, d, a[i], a[j])
    assert np.all(np.isfinite(value)) and np.all(value >= 0.0)
    assert np.all(value[:, 0] > 0.0)
    # at d = 1e300 and gamma' = 0.9 the kinks w = (b/d)^(1/gamma') underflow
    # but the integral does not: _overlap_closed_form with each power taken
    # as exp(log ...) and each difference of two powers by expm1
    beta, gp, p, far = params.beta, gamma_prime, 1.0 - gamma_prime, d[3]
    big, small = beta * (a[i] + a[j]), beta * np.abs(a[i] - a[j])
    with np.errstate(divide="ignore"):
        log_plus = np.minimum(np.log(big / far) / gp, 0.0)
        gap = np.minimum(np.log(small / far) / gp, 0.0) - log_plus
    v_plus, dw_plus = np.exp(p * log_plus), np.exp(np.log(far) + log_plus)
    nested = 2.0 * beta * np.minimum(a[i], a[j]) * v_plus * np.exp(p * gap) / p
    reference = nested - big * v_plus * np.expm1(p * gap) / p + dw_plus * np.expm1(gap)
    np.testing.assert_allclose(value[:, 3], reference, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("r1", [3.5e7, 1e10, 1e200])
@pytest.mark.parametrize("r2", [1e-3, 2.2e-7, 1.3e-12])
@pytest.mark.parametrize("d", [7.0, 300.0, 1e6])
@pytest.mark.parametrize("gamma_prime", [0.05, 0.35, 0.9])
def test_common_w_integral_keeps_digits_when_nested(r1, r2, d, gamma_prime):
    # radii r2 << d << r1 at w = 1, and larger for every smaller w: the short
    # interval lies inside the long one for every w, so the integral is
    # 2 beta min(a1, a2) s exactly, and it must not lose r2's digits against d
    beta = 0.3
    params = ModelParams(beta=beta, gamma=0.3, gamma_prime=gamma_prime, n=10.0)
    s = 1.0 / (1.0 - gamma_prime)
    a1, a2 = r1 / beta, r2 / beta
    exact = 2 * Fraction(beta) * Fraction(min(a1, a2)) * Fraction(s)
    value = _common_w_integral(params, np.array([d]), np.array([a1, a2]), np.array([a2, a1]))
    for v in value[:, 0]:
        assert abs(Fraction(v) - exact) <= Fraction(np.spacing(float(exact)))


def test_chain_finite_reference_is_finite():
    # an infinite reference would let every finite value, however large, pass
    rng = stream_generator(20240817, 0)
    for _ in range(20):
        for value, reference in _chk_pm_chain_finite(rng):
            assert math.isfinite(reference)
            assert value <= reference


def _chain_sum_dense(a1, a2, t1, t2):
    """_chain_sum's former body, kept as its reference: the double sum over
    a (nodes, nodes) array of caps."""
    s, ws = half_line_rule()
    cap = np.clip(min(t1, t2) - np.maximum(t1 - s[:, None], t2 - s[None, :]), 0.0, None)
    f1 = ws * s**a1 * exp_tail(s)
    f2 = ws * s**a2 * exp_tail(s)
    return float((f1[:, None] * f2[None, :] * cap).sum())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    a1=st.floats(0.2, 2.0),
    a2=st.floats(0.2, 2.0),
    t1=st.floats(0.0, 1.0),
    t2=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_chain_sum_equals_dense_double_sum(a1, a2, t1, t2):
    # t2 None stands for t1 == t2, where x and y tie at every node
    t2 = t1 if t2 is None else t2
    reference = _chain_sum_dense(a1, a2, t1, t2)
    assert _chain_sum(a1, a2, t1, t2) == pytest.approx(reference, rel=1e-14, abs=0.0)


def test_slack_is_tight():
    # the bound checks tolerate only round-off, not real violations
    assert BOUND_SLACK <= 1e-5
