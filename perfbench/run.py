"""Benchmark driver for drchm.

    python3 perfbench/run.py --workload gauss-n500 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

One run repeats passes of a workload, each in a fresh interpreter started by
this process, until the next pass would end after ``--seconds``.  Inputs come
from ``--seed`` alone; every pass of a run sees the same inputs, so the
median over passes measures the machine, not the sample.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics.  With ``--trace 1`` passes alternate untraced and
traced; the last line carries the per-layer metrics of the traced passes and
``trace.overhead_s``, the traced minus the untraced median wall time.  The
line before it records the environment, the failed checks and the SHA-256
digests of the ensemble arrays and report files.

Spans of traced passes are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import LAYER_UNITS  # noqa: E402
from workloads import ALL_WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "reps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **LAYER_UNITS,
    "reps_per_s_w2": "1/s",
    "failed_frac": "fraction",
    "cli.nonstrict_json_lines": "count",
    "trace.overhead_s": "s",
}
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = {False: 3, True: 4}
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 170


class PassFailed(RuntimeError):
    pass


def spawn_pass(workload: str, seed: int, traced: bool, index: int,
               tiny: bool = False) -> dict:
    """One pass in a fresh interpreter; its record, with the time it took."""
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        "--spawned-at", repr(spawned_at),
    ]
    if traced:
        cmd += ["--trace-file", str(OUT_DIR / f"trace-{workload}-p{index}.jsonl")]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
        stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} pass {index} exited with code {proc.returncode}")
    rec = json.loads(lines[-1])
    rec["pass_s"] = time.monotonic() - spawned_at
    return rec


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               tiny: bool = False) -> list[dict]:
    """Repeat passes until the next one would end after `seconds`."""
    start = time.monotonic()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(spawn_pass(workload, seed, traced, len(passes), tiny))
        elapsed = time.monotonic() - start
        typical = statistics.median(p["pass_s"] for p in passes)
        if elapsed + typical > RUN_LIMIT_S:
            break
        if len(passes) >= MIN_PASSES[trace] and elapsed + typical > seconds:
            break
    return passes


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def _rate(passes, label: str) -> float:
    return _median(
        p["reps"][label][0] / p["reps"][label][1] for p in passes if label in p["reps"]
    )


def summarize(passes: list[dict], trace: bool) -> tuple[dict, dict]:
    """(result, info): the final JSON line and the record printed before it."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failed_checks = sorted({k for p in passes for k, ok in p["checks"].items() if not ok})
    if trace:
        values = {
            name: _median(p["layers"][name] for p in traced) for name in LAYER_UNITS
        }
        values["reps_per_s_w2"] = _rate(plain, "w2")
        values["failed_frac"] = failed / attempted if attempted else 0.0
        values["cli.nonstrict_json_lines"] = _median(p["nonstrict_json_lines"] for p in passes)
        values["trace.overhead_s"] = _median(p["wall_s"] for p in traced) - _median(
            p["wall_s"] for p in plain
        )
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": _median(p["setup_s"] for p in plain),
            "wall_s": _median(p["wall_s"] for p in plain),
            "reps_per_s": _rate(plain, "w1"),
            "peak_rss_mb": _median(p["rss_mb"] for p in plain),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failed_checks and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    info = {
        "passes": len(passes),
        "traced_passes": len(traced),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "failed_checks": failed_checks,
        "digests": sorted({p["digest"] for p in passes}),
        "env": environment(passes[0]["versions"]),
    }
    return result, info


def environment(versions: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **versions,
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "drchm" / "__init__.py").is_file():
        print(f"error: no drchm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = ALL_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            passes = run_passes(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        except (PassFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result, info = summarize(passes, bool(args.trace))
        results[name] = result
        print(json.dumps({"workload": name, "seed": args.seed, **info}))
        if len(names) > 1:
            for metric, m in result["metrics"].items():
                print(f"{name:14s} {metric:38s} {m['value']:14.6g} {m['unit']}")
            print(json.dumps(result))
    if len(names) > 1:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in results.items() for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
