"""The drchm benchmark workloads: one pass of each, with its output checks.

A pass is the unit ``run.py`` repeats.  Each pass runs in a fresh
interpreter, so imports and the ``lru_cache``d quadrature are paid cold, as
a command-line user pays them.  Run as a script, this file performs one pass
and prints its record as the last line of standard output:

    python3 perfbench/workloads.py --workload gauss-n500 --seed 1 --trace 0

Checks never raise: a failed check is recorded by name and makes the run
incorrect, and a failed operation (a replicate, a CLI invocation, a limit
path or a catalog check) is counted against the operations attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# The workloads BENCHMARK.json lists.  gauss-n500 and paths-io run by name
# and in `run.py --workload all`, but are left out of the listed set: the
# run budget for four workloads allows 30-second runs, and on a 2-core host
# whose speed drifts by 10-25 % over tens of seconds their spread across
# seeds came close to the 0.25 bound.  Two workloads get 60-second runs and
# still cover every module between them.
WORKLOADS = ("stable-n2000", "oracle-report")
ALL_WORKLOADS = ("gauss-n500", "stable-n2000", "paths-io", "oracle-report")

# Work per pass, sized so that a pass takes a few seconds on a 2-core Xeon.
SIZES = {
    "gauss-n500": {"reps": 200},
    "stable-n2000": {"reps": 200, "marginal_reps": 20_000},
    "paths-io": {
        "marks_reps": 200,
        "simulate_reps": 150,
        "limit_reps": 50,
        "stable_paths": 200,
        "refinement_reps": 500,
    },
    "oracle-report": {"catalog_draws": 6},
}

# The same shapes at a size the self-test can afford.
TINY_SIZES = {
    "gauss-n500": {"reps": 6},
    "stable-n2000": {"reps": 3, "marginal_reps": 200},
    "paths-io": {
        "marks_reps": 3,
        "simulate_reps": 3,
        "limit_reps": 2,
        "stable_paths": 5,
        "refinement_reps": 5,
    },
    "oracle-report": {"catalog_draws": 1},
}

GAUSS = {"beta": 0.25, "gamma": 0.2, "gamma_prime": 0.2, "n": 500.0}
STABLE = {"beta": 0.25, "gamma": 0.7, "gamma_prime": 0.2, "n": 2000.0}
EVAL_TIMES = (0.3, 0.5, 0.8)
STREAM_BLOCK = 1_000_000  # disjoint stream ranges, as in drchm.experiments


def import_drchm():
    """Import drchm from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "drchm" / "__init__.py").is_file():
        raise SystemExit(f"error: no drchm sources under {src}")
    sys.path.insert(0, str(src))
    import drchm
    import drchm.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(drchm.__file__).resolve().parent != (src / "drchm").resolve():
        raise SystemExit(f"error: drchm imported from {drchm.__file__}, not {src}")


class Pass:
    """Bookkeeping of one pass: timers, checks, operation counts, digest."""

    def __init__(self, spawned_at: float, tracer=None):
        self.spawned_at = spawned_at
        self.tracer = tracer
        self.t0 = None
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.reps = {}  # label -> (replicates, seconds)
        self.hash = hashlib.sha256()
        self.nonstrict_json_lines = 0

    def start(self) -> None:
        """Mark the end of set-up: the first timed call follows."""
        self.t0 = time.monotonic()

    def check(self, name: str, ok) -> bool:
        ok = bool(ok)
        self.checks[name] = self.checks.get(name, True) and ok
        return ok

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def digest_arrays(self, arrays: dict) -> None:
        import numpy as np

        for key in sorted(arrays):
            value = np.ascontiguousarray(arrays[key])
            self.hash.update(f"{key}:{value.dtype}:{value.shape}".encode())
            self.hash.update(value.tobytes())

    def digest_files(self, directory: Path) -> None:
        for path in sorted(p for p in directory.rglob("*") if p.is_file()):
            data = path.read_bytes()
            self.hash.update(str(path.relative_to(directory)).encode())
            self.hash.update(data)
            if path.suffix == ".jsonl":
                self.nonstrict_json_lines += sum(
                    1 for line in data.decode().splitlines()
                    if "NaN" in line or "Infinity" in line
                )

    def record(self) -> dict:
        return {
            "setup_s": self.t0 - self.spawned_at,
            "wall_s": time.monotonic() - self.t0,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "reps": {k: list(v) for k, v in self.reps.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "digest": self.hash.hexdigest(),
            "nonstrict_json_lines": self.nonstrict_json_lines,
            "traced": self.tracer is not None,
        }


def timed(fn, *args, **kwargs):
    t = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t


# ---------------------------------------------------------------------------
# ensemble workloads


def check_ensembles(ps: Pass, ens1: dict, ens2: dict, tolerance: float) -> None:
    """Per-replicate checks of the workers=1 and workers=2 ensembles."""
    import numpy as np

    rows = len(ens1["counts"])
    bad = {"w1": np.zeros(rows, dtype=bool), "w2": np.zeros(rows, dtype=bool)}
    for key in ens1:
        a, b = ens1[key], ens2[key]
        if a.shape == b.shape and a.dtype == b.dtype:
            same = (a == b) if a.ndim == 1 else np.all(a == b, axis=1)
        else:
            same = np.zeros(rows, dtype=bool)
        ps.check(f"w1_w2_identical.{key}", np.all(same))
        bad["w2"] |= ~same  # workers=2 must reproduce workers=1
    for label, ens in (("w1", ens1), ("w2", ens2)):
        split = np.all(ens["low_counts"] + ens["high_counts"] == ens["counts"], axis=1)
        bound = ens["missed_edge_bound"] <= tolerance
        ps.check(f"{label}.low_plus_high_eq_counts", np.all(split))
        ps.check(f"{label}.missed_edge_bound_within_tolerance", np.all(bound))
        bad[label] |= ~(split & bound)
        ps.ops(rows, int(bad[label].sum()))


def run_ensembles(ps: Pass, params, scfg, eval_times, reps: int):
    from drchm.experiments import edge_count_ensemble

    thr = float(params.n) ** (-2.0 / 3.0)
    ens1, t1 = timed(
        edge_count_ensemble, params, scfg, eval_times, reps, u_threshold=thr, workers=1
    )
    ens2, t2 = timed(
        edge_count_ensemble, params, scfg, eval_times, reps, u_threshold=thr, workers=2
    )
    ps.reps["w1"] = (reps, t1)
    ps.reps["w2"] = (reps, t2)
    check_ensembles(ps, ens1, ens2, scfg.missed_edge_tolerance)
    ps.digest_arrays(ens1)
    return ens1


def gauss_n500(ps: Pass, seed: int, size: dict) -> None:
    """README quick start: small arrays, per-call overhead, cold quadrature."""
    import numpy as np
    from drchm import ModelParams, SamplerConfig
    from drchm.oracles import mean_edge_count, oracle_covariance, oracle_variance
    from drchm.stats import MomentSummary, cross_covariance, normality_statistic

    params = ModelParams(**GAUSS)
    scfg = SamplerConfig(master_seed=seed, w_min=1e-5)
    ps.start()
    ens = run_ensembles(ps, params, scfg, EVAL_TIMES, size["reps"])
    # S_n(t) is stationary in t, so one variance oracle serves every eval time.
    variance = oracle_variance(params, 0.5)
    covariance = oracle_covariance(params, EVAL_TIMES[0], EVAL_TIMES[-1])
    center = mean_edge_count(params)
    normed = (ens["counts"] - center) / math.sqrt(params.n)
    for i, t in enumerate(EVAL_TIMES):
        raw = MomentSummary.from_samples(ens["counts"][:, i])
        ps.check(f"mean_within_4se.t{t}", abs(raw.mean - center) <= 4.0 * raw.mean_se)
        mom = MomentSummary.from_samples(normed[:, i])
        ps.check(
            f"variance_within_4se.t{t}",
            abs(mom.variance - variance / params.n) <= 4.0 * mom.variance_se,
        )
    cov, cov_se = cross_covariance(normed[:, 0], normed[:, -1])
    ps.check("covariance_finite", all(map(math.isfinite, (covariance.oracle, cov, cov_se))))
    if len(normed) >= 100:  # the omnibus statistic needs 100 samples
        normality = normality_statistic(normed[:, 1])
        ps.check("normality_finite", all(map(math.isfinite, normality)))
    ps.digest_arrays({"oracles": np.array([variance, covariance.oracle])})


def stable_n2000(ps: Pass, seed: int, size: dict) -> None:
    """Criterion 7's shape: large heavy-tailed arrays, build_edges dominates."""
    import numpy as np
    from drchm import ModelParams, SamplerConfig
    from drchm.experiments import normalization
    from drchm.limits import stable_marginals
    from drchm.oracles import stable_mean
    from drchm.stats import ks_distance

    params = ModelParams(**STABLE)
    scfg = SamplerConfig(master_seed=seed, w_min=1e-8)
    eps = 0.005
    ps.start()
    ens = run_ensembles(ps, params, scfg, (0.5,), size["reps"])
    limit = stable_marginals(
        params, eps, 0.5, size["marginal_reps"], scfg, stream=11 * STREAM_BLOCK
    )
    ps.ops(1, 0 if ps.check("stable_marginals_finite", np.all(np.isfinite(limit))) else 1)
    center, scale = normalization(params)
    ks = ks_distance((ens["counts"][:, 0] - center) / scale, limit - stable_mean(params, eps))
    ps.check("ks_distance_in_unit_interval", 0.0 <= ks <= 1.0)
    ps.digest_arrays({"limit": limit})


# ---------------------------------------------------------------------------
# CLI workloads


def cli_run(ps: Pass, kind: str, config: Path, workdir: Path, seed: int) -> Path:
    """One in-process CLI invocation; returns its output directory."""
    from drchm.cli import main

    out = workdir / kind
    argv = [kind, "--config", str(config), "--seed", str(seed), "--workers", "1", "--out", str(out)]
    with ps.span(f"cli.{kind}"), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    ok = ps.check(f"cli.{kind}.exit0", code == 0)
    ps.ops(1, 0 if ok else 1)
    return out


def write_config(workdir: Path, kind: str, model: dict, seed: int, **extra) -> Path:
    cfg = {
        "model": model,
        "sampler": {"master_seed": seed, "w_min": 1e-5},
        "kind": kind,
        "eval_times": list(EVAL_TIMES),
        **extra,
    }
    path = workdir / f"{kind}.json"
    path.write_text(json.dumps(cfg))
    return path


def read_jsonl(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


@contextlib.contextmanager
def work_directory(name: str):
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def paths_io(ps: Pass, seed: int, size: dict) -> None:
    """Full paths built and written through the CLI, plus the limit samplers."""
    import numpy as np
    from drchm import ModelParams, SamplerConfig
    from drchm.limits import epsilon_refinement_study, sample_stable_path

    stable = ModelParams(**{**STABLE, "n": 500.0})
    scfg = SamplerConfig(master_seed=seed)
    with work_directory("paths-io") as workdir:
        configs = {
            "validate-marks": write_config(
                workdir, "validate-marks", GAUSS, seed, replicates=size["marks_reps"]
            ),
            "simulate": write_config(
                workdir, "simulate", GAUSS, seed,
                replicates=size["simulate_reps"], write_paths=True,
            ),
            "sample-limit": write_config(
                workdir, "sample-limit", GAUSS, seed, replicates=size["limit_reps"]
            ),
        }
        ps.start()
        t = time.perf_counter()
        marks = cli_run(ps, "validate-marks", configs["validate-marks"], workdir, seed)
        sim = cli_run(ps, "simulate", configs["simulate"], workdir, seed)
        ps.reps["w1"] = (size["marks_reps"] + size["simulate_reps"], time.perf_counter() - t)
        limit = cli_run(ps, "sample-limit", configs["sample-limit"], workdir, seed)

        records = read_jsonl(marks / "validate_marks.jsonl")
        summary = records[-1] if records else {}
        ps.check("marks.pm_identity_err_zero", summary.get("max_pm_identity_err") == 0.0)
        ps.check("marks.split_identity_err_zero", summary.get("max_split_identity_err") == 0.0)
        ps.check(
            "marks.monotone_pm",
            len(records) == size["marks_reps"] + 1
            and all(r["monotone_pm"] for r in records[:-1]),
        )
        ps.check(
            "simulate.path_files",
            len(list(sim.glob("replicate_*.csv"))) == size["simulate_reps"],
        )
        ps.check(
            "sample_limit.path_files",
            len(list(limit.glob("limit_path_*.csv"))) == size["limit_reps"],
        )

        # The slope check inside sample_stable_path fails on a few streams
        # (a known defect); those paths count as failed operations.
        values = []
        for stream in range(size["stable_paths"]):
            try:
                sample = sample_stable_path(stable, 0.01, scfg, stream)
            except AssertionError:
                ps.ops(1, 1)
                continue
            ps.ops(1)
            values.append(sample.path(0.5))
        refinement = epsilon_refinement_study(
            stable, (0.1, 0.05, 0.025, 0.0125), size["refinement_reps"], scfg,
            stream=12 * STREAM_BLOCK,
        )
        ok = ps.check("refinement_finite", np.all(np.isfinite(refinement.distances)))
        ps.ops(1, 0 if ok else 1)
        ps.digest_files(workdir)
        ps.digest_arrays({"stable_paths": np.array(values), "refinement": refinement.distances})


def oracle_report(ps: Pass, seed: int, size: dict) -> None:
    """Pure quadrature, no sampling: the lemma catalog and the adjudication."""
    import drchm.experiments as experiments

    with work_directory("oracle-report") as workdir:
        config = write_config(workdir, "oracle-report", GAUSS, seed)
        # The CLI fixes the catalog at 20 draws; the benchmark sizes it to
        # its pass length by binding the draw count, and times the catalog.
        catalog = experiments.lemma_catalog_check
        draws = size["catalog_draws"]

        def sized_catalog(*args, **kwargs):
            records, seconds = timed(catalog, *args, draws=draws, **kwargs)
            ps.reps["w1"] = (draws, seconds)
            return records

        experiments.lemma_catalog_check = sized_catalog
        try:
            ps.start()
            out = cli_run(ps, "oracle-report", config, workdir, seed)
        finally:
            experiments.lemma_catalog_check = catalog
        records = read_jsonl(out / "oracle_report.jsonl")
        summary = records[-1] if records else {}
        failures = summary.get("failures", ["<missing report>"])
        checks = summary.get("checks", 0)
        ps.ops(checks, len(failures))
        ps.check("catalog.no_failures", not failures and checks > 0)
        ps.check("catalog.no_bound_violations", summary.get("bound_violations") == 0)
        ps.check(
            "catalog.max_equality_err",
            summary.get("max_equality_rel_err", math.inf) <= 1e-6,
        )
        ps.check(
            "adjudication.records",
            sum(r.get("section") == "covariance_adjudication" for r in records) == 3,
        )
        ps.digest_files(out)


PASSES = {
    "gauss-n500": gauss_n500,
    "stable-n2000": stable_n2000,
    "paths-io": paths_io,
    "oracle-report": oracle_report,
}


def run_pass(workload: str, seed: int, spawned_at: float, trace: bool,
             size: dict | None = None, trace_path: Path | None = None) -> dict:
    """Import drchm, run one pass of the workload and return its record."""
    import_drchm()
    import numpy
    import scipy

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ps = Pass(spawned_at, tracer)
    try:
        PASSES[workload](ps, seed, size or SIZES[workload])
        rec = ps.record()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        from tracing import layer_metrics

        rec["layers"] = layer_metrics(tracer.spans, tracer.counters, rec["wall_s"])
        if trace_path is not None:
            tracer.write(trace_path)
    rec["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one pass of a drchm benchmark workload.")
    parser.add_argument("--workload", choices=ALL_WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--tiny", action="store_true", help="use the self-test sizes")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()
    rec = run_pass(
        args.workload, args.seed, spawned_at, bool(args.trace),
        size=TINY_SIZES[args.workload] if args.tiny else None,
        trace_path=Path(args.trace_file) if args.trace_file else None,
    )
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
