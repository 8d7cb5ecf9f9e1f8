"""CLI fuzz check: every config either runs or is refused with exit 2 (or 3
for a truncation loss), never with a traceback.

Each case replaces one to three fields of a tiny, valid config with edge
values: every single replacement is tried, and derandomized hypothesis draws
the combinations.  oracle-report gets only the single replacements, of the
fields it reads, with its lemma catalog bound to one draw per check (the
CLI's fixed 20 draws take tens of seconds per run); its runs must also be
silent and write strict JSON.
"""

import contextlib
import functools
import io
import json
import math
import pathlib
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drchm import experiments
from drchm.catalog import lemma_catalog_check
from drchm.cli import main

GAUSS = {"beta": 0.25, "gamma": 0.2, "gamma_prime": 0.2, "n": 20.0}
STABLE = {"beta": 0.25, "gamma": 0.7, "gamma_prime": 0.2, "n": 20.0}

BASES = {
    "simulate-gaussian": ("simulate", GAUSS, {"write_paths": True}),
    "simulate-stable": ("simulate", STABLE, {}),
    "validate-stable": (
        "validate-stable",
        STABLE,
        {
            "n_ladder": [10, 20],
            "jump_samples": 100,
            "epsilon": 0.1,
            "ks_epsilon": 0.1,
            "eps_sequence": [0.1, 0.05],
        },
    ),
    "validate-gaussian": ("validate-gaussian", GAUSS, {"n_ladder": [10, 20]}),
    "validate-marks": ("validate-marks", GAUSS, {}),
    "sample-limit-gaussian": ("sample-limit", GAUSS, {"grid_points": 11}),
    "sample-limit-stable": ("sample-limit", STABLE, {"grid_points": 11, "epsilon": 0.1}),
}
ORACLE_BASES = {"oracle-report": ("oracle-report", GAUSS, {})}

FIELDS = (
    "model.beta",
    "model.gamma",
    "model.gamma_prime",
    "model.n",
    "sampler.master_seed",
    "sampler.w_min",
    "sampler.missed_edge_tolerance",
    "replicates",
    "eval_times",
    "write_paths",
    "n_ladder",
    "epsilon",
    "ks_epsilon",
    "eps_sequence",
    "u_threshold",
    "jump_samples",
    "grid_points",
    "workers",
    "out_dir",
)

# The fields oracle-report reads.
ORACLE_FIELDS = (
    "model.beta",
    "model.gamma",
    "model.gamma_prime",
    "model.n",
    "sampler.master_seed",
    "out_dir",
)

EDGE_VALUES = (0, -1, 1e300, 1e-300, math.nan, "x", True, [])


def _config(base: str, overrides: dict) -> dict:
    kind, model, extra = {**BASES, **ORACLE_BASES}[base]
    data = {
        "model": dict(model),
        "sampler": {"master_seed": 5},
        "kind": kind,
        "replicates": 2,
        "eval_times": [0.25, 0.5, 0.75],
        **extra,
    }
    for field, value in overrides.items():
        section, _, key = field.rpartition(".")
        (data[section] if section else data)[key] = value
    return data


def _exits_cleanly(base: str, overrides: dict) -> list[str]:
    """Run the CLI on the config; returns the lines of every JSONL report."""
    data = _config(base, overrides)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = pathlib.Path(tmp) / "out"
        argv = [data["kind"], "--config", str(cfg), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        lines = [line for p in sorted(out.glob("*.jsonl")) for line in p.read_text().splitlines()]
    assert code in (0, 2, 3), (overrides, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return lines


def _reject(token):
    raise ValueError(f"non-strict JSON token {token}")


@pytest.mark.parametrize("base", sorted(BASES))
def test_each_edge_value_alone(base):
    for field in FIELDS:
        for value in EDGE_VALUES:
            _exits_cleanly(base, {field: value})


@pytest.mark.parametrize("base", sorted(BASES))
@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    overrides=st.dictionaries(
        st.sampled_from(FIELDS), st.sampled_from(EDGE_VALUES), min_size=2, max_size=3
    )
)
def test_edge_value_combinations(base, overrides):
    _exits_cleanly(base, overrides)


def test_oracle_report_each_edge_value_alone(monkeypatch):
    # the adjudication runs in full; only the catalog's draw count shrinks
    monkeypatch.setattr(
        experiments, "lemma_catalog_check", functools.partial(lemma_catalog_check, draws=1)
    )
    for field in ORACLE_FIELDS:
        for value in EDGE_VALUES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lines = _exits_cleanly("oracle-report", {field: value})
            for line in lines:
                json.loads(line, parse_constant=_reject)


def test_tiny_gamma_validate_gaussian_is_silent():
    # gamma = 1e-300 moves every kink of the finite-window pair oracle to
    # u = 0 or 1; the run must succeed without a warning on stderr
    data = _config("validate-gaussian", {"model.gamma": 1e-300})
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(data))
        argv = [data["kind"], "--config", str(cfg), "--out", str(pathlib.Path(tmp) / "out")]
        code = "import sys; from drchm.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True
        )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
