"""Quadrature verification of the identity/bound catalog."""

import json
import math
from pathlib import Path

from drchm import experiments
from drchm.catalog import (
    BOUND_SLACK,
    EQUALITY_TOLERANCE,
    _chk_pm_chain_finite,
)
from drchm.experiments import ExperimentConfig, run_oracle_report
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


def test_jsonl_output(catalog_records, tmp_path, monkeypatch):
    # the oracle report writes the catalog file; a stable model skips its
    # slow covariance adjudication
    monkeypatch.setattr(experiments, "lemma_catalog_check", lambda master_seed: catalog_records)
    cfg = ExperimentConfig.from_dict(
        {
            "model": {"beta": 0.25, "gamma": 0.7, "gamma_prime": 0.2, "n": 50.0},
            "kind": "oracle-report",
            "out_dir": str(tmp_path),
        }
    )
    lines = Path(run_oracle_report(cfg)["catalog"]).read_text().strip().split("\n")
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
