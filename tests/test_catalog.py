"""Quadrature verification of the identity/bound catalog."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drchm import experiments
from drchm.catalog import (
    BOUND_SLACK,
    EQUALITY_TOLERANCE,
    _chk_pm_chain_finite,
    _common_w_integral,
    _pair_numeric,
    _pm_profile_inner,
    _unit_tail,
)
from drchm.experiments import ExperimentConfig, run_oracle_report
from drchm.model import ModelParams
from drchm.oracles import gl_panel, half_line_rule, log_rule, power_rule
from drchm.rng import stream_generator


def test_catalog_complete(catalog_records):
    assert len(catalog_records) == 26
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
    """_pair_numeric summed over every ordered node pair, with no symmetry."""
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


@pytest.mark.parametrize("width", [2.0**-40, 2.0**-27, 2.0**-13])
def test_minus_profile_narrow_panels(width):
    # narrow panels against the closed form e^-c (1 - e^-width), times the
    # numeric half-line mass of e^-s; dyadic widths keep t2 - width exact
    t2 = 0.5
    r = np.array([t2 - width, -2.0])
    t1 = t2 - width
    value = _pm_profile_inner(r, t1, t2, "minus")
    c = np.maximum(t1 - r, 0.0)
    expected = np.exp(-c) * -np.expm1(-width) * _unit_tail()
    np.testing.assert_allclose(value, expected, rtol=1e-13, atol=0.0)


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


def test_chain_finite_reference_is_finite():
    # an infinite reference would let every finite value, however large, pass
    rng = stream_generator(20240817, 0)
    for _ in range(20):
        for value, reference in _chk_pm_chain_finite(rng):
            assert math.isfinite(reference)
            assert value <= reference


def test_slack_is_tight():
    # the bound checks tolerate only round-off, not real violations
    assert BOUND_SLACK <= 1e-5
