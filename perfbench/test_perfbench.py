"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Covers the metric names and units against BENCHMARK.json, the output-check
plumbing, the trace writer and the driver's refusal to run without sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_spec():
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert spec["command"] == ["python3", "perfbench/run.py"]


def _ensemble(rows=4):
    counts = np.arange(rows * 2, dtype=float).reshape(rows, 2) + 10.0
    return {
        "counts": counts,
        "low_counts": counts - 3.0,
        "high_counts": np.full_like(counts, 3.0),
        "missed_edge_bound": np.full(rows, 0.01),
        "high_sup": np.ones(rows),
        "edges": np.full(rows, 7),
    }


def test_check_plumbing_counts_failures():
    ps = workloads.Pass(spawned_at=time.monotonic())
    ens1, ens2 = _ensemble(), _ensemble()
    workloads.check_ensembles(ps, ens1, ens2, tolerance=1.0)
    assert ps.attempted == 8 and ps.failed == 0 and all(ps.checks.values())

    ps = workloads.Pass(spawned_at=time.monotonic())
    ens2["edges"][1] = 8  # workers=2 disagrees on one replicate
    ens1["low_counts"][2, 0] += 1.0  # split identity broken on another
    ens1["missed_edge_bound"][3] = 2.0  # and a bound over tolerance
    workloads.check_ensembles(ps, ens1, ens2, tolerance=1.0)
    # rows 2 and 3 fail in w1 and, as they differ from w1, in w2 too
    assert ps.attempted == 8 and ps.failed == 5
    failed = {k for k, ok in ps.checks.items() if not ok}
    assert failed == {
        "w1_w2_identical.edges",
        "w1_w2_identical.low_counts",
        "w1_w2_identical.missed_edge_bound",
        "w1.low_plus_high_eq_counts",
        "w1.missed_edge_bound_within_tolerance",
    }


def _pass_record(traced=False, wall=1.0, ok=True, failed=0):
    rec = {
        "setup_s": 1.0, "wall_s": wall, "rss_mb": 100.0,
        "reps": {"w1": [10, 0.5], "w2": [10, 0.4]},
        "attempted": 20, "failed": failed, "checks": {"a": ok},
        "digest": "d", "nonstrict_json_lines": 0, "traced": traced,
        "versions": {"python": "3", "numpy": "2", "scipy": "1"},
    }
    if traced:
        rec["layers"] = {name: 1.0 for name in tracing.LAYER_UNITS}
    return rec


def test_summarize_reports_every_metric_with_its_unit():
    result, info = run.summarize([_pass_record(), _pass_record(wall=3.0)], trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 40
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert result["metrics"]["wall_s"]["value"] == 2.0
    assert result["metrics"]["reps_per_s"]["value"] == 20.0
    assert info["env"]["nproc"] >= 1

    passes = [_pass_record(), _pass_record(traced=True, wall=1.5, ok=False, failed=2)]
    result, info = run.summarize(passes, trace=True)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER_UNITS
    assert not result["correct"] and info["failed_checks"] == ["a"]
    assert result["metrics"]["trace.overhead_s"]["value"] == 0.5
    assert result["metrics"]["failed_frac"]["value"] == 2 / 40
    assert result["metrics"]["reps_per_s_w2"]["value"] == 25.0


def test_trace_writer_records_parents_threads_and_self_time(tmp_path):
    tr = tracing.Tracer()
    with tr.span("experiments.edge_count_ensemble"):
        with tr.span("experiments._simulate_one"):
            time.sleep(0.002)

        def replicate():
            with tr.span("experiments._simulate_one"):
                pass

        worker = threading.Thread(target=replicate)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    with pytest.raises(ValueError):
        with tr.span("paths.build_edges"):
            raise ValueError("boom")
    path = tmp_path / "trace.jsonl"
    tr.count("paths.edges", 3)
    tr.write(path)
    spans, counters = tracing.read_trace(path)
    assert spans == [list(s) for s in tr.spans]
    assert counters == {"paths.edges": 3}
    assert [s[3] for s in spans] == [None, 0, 0, None]
    assert spans[1][4] != spans[2][4]
    assert spans[3][5] == "ValueError"
    self_ns = tracing.self_times_ns(spans)
    assert 0 <= self_ns[0] < spans[0][2] - spans[0][1] - 2_000_000


def test_install_wraps_and_uninstall_restores():
    workloads.import_drchm()
    import drchm.experiments as experiments
    import drchm.paths as paths

    original = paths.build_edges
    tr = tracing.Tracer()
    tr.install()
    try:
        assert hasattr(paths.build_edges, "__wrapped_original__")
        assert experiments.build_edges is paths.build_edges
        assert hasattr(experiments.RUNNERS["simulate"], "__wrapped_original__")
    finally:
        tr.uninstall()
    assert paths.build_edges is original and experiments.build_edges is original
    assert not hasattr(experiments.RUNNERS["simulate"], "__wrapped_original__")


@pytest.mark.parametrize("workload", workloads.ALL_WORKLOADS)
def test_tiny_traced_pass(workload):
    rec = workloads.run_pass(
        workload, seed=3, spawned_at=time.monotonic(), trace=True,
        size=workloads.TINY_SIZES[workload],
    )
    assert rec["attempted"] > 0 and rec["failed"] == 0
    assert all(rec["checks"].values()), rec["checks"]
    assert set(rec["layers"]) == set(tracing.LAYER_UNITS)
    if workload == "oracle-report":
        assert rec["layers"]["catalog.checks"] > 0
        assert rec["layers"]["paths.build_edges.ms"] == 0.0
        assert rec["layers"]["layer.sampler.self_pct"] == 0.0
    else:
        assert rec["layers"]["paths.edges"] > 0


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_prints_result_as_last_line(trace):
    proc = _run(
        ["--workload", "gauss-n500", "--seed", "2", "--seconds", "0", "--trace", trace, "--tiny"],
        ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_driver_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "gauss-n500", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
