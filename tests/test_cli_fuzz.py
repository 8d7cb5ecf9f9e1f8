"""CLI fuzz check: every config either runs or is refused with exit 2 (or 3
for a truncation loss), never with a traceback.

Each case replaces one to three fields of a tiny, valid config with edge
values: every single replacement is tried, and derandomized hypothesis draws
the combinations.  oracle-report is left out: its fixed 20-draw lemma catalog
takes tens of seconds per run.
"""

import contextlib
import io
import json
import math
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

EDGE_VALUES = (0, -1, 1e300, 1e-300, math.nan, "x", True, [])


def _config(base: str, overrides: dict) -> dict:
    kind, model, extra = BASES[base]
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


def _exits_cleanly(base: str, overrides: dict) -> None:
    data = _config(base, overrides)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(data))
        argv = [data["kind"], "--config", str(cfg), "--out", str(pathlib.Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 2, 3), (overrides, err.getvalue())
    assert "Traceback" not in err.getvalue()


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
