"""In-memory span tracer for the drchm benchmark.

The tracer wraps the public functions of the drchm modules from the outside:
no source under ``src/`` changes.  Each wrapped call records one span
``(name, start_ns, end_ns, parent, thread, error)`` in a list held in memory;
the list is written out once, when the traced pass ends.  Every module that
imported a wrapped function by name gets the wrapper as well, so calls made
through ``from .paths import build_edges`` are traced too.

``layer_metrics`` turns the spans and counters of one pass into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time

import numpy as np

# Modules whose public functions are traced, in the order they are named.
TRACED_MODULES = (
    "rng",
    "sampler",
    "paths",
    "experiments",
    "limits",
    "oracles",
    "catalog",
    "stats",
    "cli",
)

# Private or class-level callables traced besides the public functions: the
# replicate boundary and the path writers and factories the metrics need.
EXTRA_TARGETS = (
    ("experiments", "_simulate_one"),
    ("experiments", "_write_grid_csv"),
    ("paths", "StepPath.to_csv"),
    ("limits", "GaussianGrid.build"),
)

CSV_WRITERS = (
    "paths.StepPath.to_csv",
    "experiments._write_grid_csv",
)
FILE_WRITERS = CSV_WRITERS + ("experiments.write_jsonl", "catalog.write_catalog_jsonl")


class Tracer:
    """Collects spans and counters; install() wraps, uninstall() restores.

    A span opened on a worker thread with no open span of its own takes the
    innermost open span of the installing thread as its parent, which is the
    ensemble call that started the worker pool.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, time.perf_counter_ns(), 0, parent, threading.get_ident(), None]
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int, error: str | None = None) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.spans[idx][5] = error
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self.open(name)
        try:
            yield
        except BaseException as exc:
            self.close(idx, type(exc).__name__)
            raise
        self.close(idx)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def install(self, package: str = "drchm") -> None:
        """Wrap every traced callable and rebind it wherever it is bound."""
        modules = {
            m: importlib.import_module(f"{package}.{m}") for m in TRACED_MODULES
        }
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                self._rebind(namespaces, obj, self.wrap(f"{short}.{attr}", obj))
        for short, dotted in EXTRA_TARGETS:
            mod = modules[short]
            if "." in dotted:
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(f"{short}.{dotted}", raw.__func__))
                else:
                    new = self.wrap(f"{short}.{dotted}", raw)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
            else:
                obj = getattr(mod, dotted)
                self._rebind(namespaces, obj, self.wrap(f"{short}.{dotted}", obj))

    def _rebind(self, namespaces, original, wrapper) -> None:
        """Replace original by wrapper in module namespaces and in their
        module-level dicts, such as the experiment runner table."""
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    self._restore.append((ns, attr, original))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._restore.append((value, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Write spans (one JSON object per line) and the counters."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"counters": self.counters}) + "\n")
            for i, (name, start, end, parent, thread, error) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "thread": thread,
                            "error": error,
                        }
                    )
                    + "\n"
                )


def read_trace(path) -> tuple[list[list], dict]:
    """Inverse of Tracer.write."""
    with open(path) as fh:
        counters = json.loads(fh.readline())["counters"]
        spans = [
            [r["name"], r["start_ns"], r["end_ns"], r["parent"], r["thread"], r["error"]]
            for r in map(json.loads, fh)
        ]
    return spans, counters


# ---------------------------------------------------------------------------
# counters read from arguments and results at the layer boundaries


def _count_vertices(tr, args, kwargs, vs):
    tr.count("sampler.vertices", len(vs))


def _count_interactions(tr, args, kwargs, inter):
    tr.count("sampler.interactions", len(inter))
    tr.count("sampler.bands", len(inter.band_w_lo))
    tr.maximum("sampler.missed_edge_bound.max", float(inter.missed_edge_bound))


def _count_edges(tr, args, kwargs, edges):
    tr.count("paths.edges", len(edges))


def _count_generator(tr, args, kwargs, gen):
    tr.count("rng.generators")


def _count_stable_reps(tr, args, kwargs, values):
    tr.count("limits.stable_marginals.reps", len(values))


def _count_file(tr, args, kwargs, result):
    path = kwargs.get("path") or next(
        (a for a in args if isinstance(a, (str, os.PathLike))), None
    )
    if path is not None and os.path.exists(path):
        tr.count("io.files")
        tr.count("io.bytes", os.path.getsize(path))


def _count_catalog(tr, args, kwargs, records):
    tr.count("catalog.checks", len(records))
    tr.count("catalog.failures", sum(not r.passed for r in records))


_HOOKS = {
    "sampler.sample_vertices": _count_vertices,
    "sampler.sample_interactions": _count_interactions,
    "paths.build_edges": _count_edges,
    "rng.stream_generator": _count_generator,
    "rng.substream_generator": _count_generator,
    "limits.stable_marginals": _count_stable_reps,
    "catalog.lemma_catalog_check": _count_catalog,
    **{name: _count_file for name in FILE_WRITERS},
}


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

CLI_KINDS = ("simulate", "validate-marks", "sample-limit", "oracle-report")
LAYERS = ("rng", "sampler", "paths", "experiments", "limits", "oracles", "catalog", "stats", "cli")

# name -> unit, for every per-layer metric a traced pass reports.
LAYER_UNITS = {
    "sampler.sample_vertices.ms": "ms",
    "sampler.sample_interactions.ms": "ms",
    "sampler.vertices": "count",
    "sampler.interactions": "count",
    "sampler.bands": "count",
    "sampler.missed_edge_bound.max": "edges",
    "rng.generators": "count",
    "paths.build_edges.ms": "ms",
    "paths.build_edges.share": "%",
    "paths.edges": "count",
    "paths.edge_count_at.ms": "ms",
    "paths.mark_split.ms": "ms",
    "paths.full_path.ms": "ms",
    "paths.csv_write.ms": "ms",
    "io.files": "count",
    "io.bytes": "bytes",
    "experiments.ensemble.self_ms": "ms",
    "experiments.rep_ms.p50": "ms",
    "experiments.rep_ms.p99": "ms",
    "experiments.rep_ms.samples": "count",
    "experiments.w2.busy_frac": "fraction",
    "limits.stable_marginals.ms_per_1k": "ms",
    "limits.sample_stable_path.ms": "ms",
    "limits.slope_check_failures": "count",
    "limits.epsilon_refinement.ms": "ms",
    "limits.gaussian_grid.ms": "ms",
    "oracles.oracle_variance.cold_ms": "ms",
    "oracles.oracle_covariance.cold_ms": "ms",
    "catalog.lemma_catalog_check.s": "s",
    "catalog.checks": "count",
    "catalog.failures": "count",
    "stats.ms": "ms",
    **{f"cli.{kind}.s": "s" for kind in CLI_KINDS},
    **{f"layer.{layer}.self_pct": "%" for layer in LAYERS},
}


def _durations_ms(spans, *names) -> np.ndarray:
    return np.array(
        [(s[2] - s[1]) / 1e6 for s in spans if s[0] in names], dtype=float
    )


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def self_times_ns(spans) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = np.empty(len(spans))
    for i, s in enumerate(spans):
        covered = 0
        end = s[1]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, end), min(hi, s[2])
            if hi > lo:
                covered += hi - lo
                end = hi
        out[i] = (s[2] - s[1]) - covered
    return out


def layer_metrics(spans, counters, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 where a layer was not called.

    Times are medians per call unless the name says otherwise; shares are
    self time over thread time.
    """
    out = {name: 0.0 for name in LAYER_UNITS}
    for name in (
        "sampler.vertices", "sampler.interactions", "sampler.bands",
        "sampler.missed_edge_bound.max", "rng.generators", "paths.edges",
        "io.files", "io.bytes", "catalog.checks", "catalog.failures",
    ):
        out[name] = float(counters.get(name, 0.0))
    med = lambda *names: _median(_durations_ms(spans, *names))
    out["sampler.sample_vertices.ms"] = med("sampler.sample_vertices")
    out["sampler.sample_interactions.ms"] = med("sampler.sample_interactions")
    out["paths.build_edges.ms"] = med("paths.build_edges")
    out["paths.edge_count_at.ms"] = med("paths.edge_count_at")
    out["paths.mark_split.ms"] = med("paths.mark_split_paths")
    out["paths.full_path.ms"] = med("paths.edge_count_path")
    out["paths.csv_write.ms"] = med(*CSV_WRITERS)
    out["limits.sample_stable_path.ms"] = med("limits.sample_stable_path")
    out["limits.epsilon_refinement.ms"] = med("limits.epsilon_refinement_study")
    out["limits.gaussian_grid.ms"] = med("limits.GaussianGrid.build")
    # Every oracle call of a workload has fresh arguments in a fresh
    # interpreter, so each call fills the quadrature caches.
    out["oracles.oracle_variance.cold_ms"] = med("oracles.oracle_variance")
    out["oracles.oracle_covariance.cold_ms"] = med("oracles.oracle_covariance")
    out["catalog.lemma_catalog_check.s"] = (
        float(_durations_ms(spans, "catalog.lemma_catalog_check").sum()) / 1e3
    )
    out["stats.ms"] = float(
        _durations_ms(
            spans, "stats.ks_distance", "stats.normality_statistic", "stats.cross_covariance"
        ).sum()
    )
    for kind in CLI_KINDS:
        out[f"cli.{kind}.s"] = float(_durations_ms(spans, f"cli.{kind}").sum()) / 1e3
    out["limits.slope_check_failures"] = float(
        sum(1 for s in spans if s[0] == "limits.sample_stable_path" and s[5] == "AssertionError")
    )
    marg = _durations_ms(spans, "limits.stable_marginals").sum()
    reps = counters.get("limits.stable_marginals.reps", 0.0)
    out["limits.stable_marginals.ms_per_1k"] = float(marg / reps * 1e3) if reps else 0.0

    reps_ms = _durations_ms(spans, "experiments._simulate_one")
    if len(reps_ms):
        out["experiments.rep_ms.p50"] = float(np.percentile(reps_ms, 50))
        out["experiments.rep_ms.p99"] = float(np.percentile(reps_ms, 99))
    out["experiments.rep_ms.samples"] = float(len(reps_ms))

    self_ns = self_times_ns(spans)
    ensembles = [i for i, s in enumerate(spans) if s[0] == "experiments.edge_count_ensemble"]
    if ensembles:
        out["experiments.ensemble.self_ms"] = _median([self_ns[i] / 1e6 for i in ensembles])
    busy = []
    for i in ensembles:
        threads = {s[4] for s in spans if s[3] == i and s[0] == "experiments._simulate_one"}
        if len(threads) > 1:
            rep_ns = sum(s[2] - s[1] for s in spans if s[3] == i)
            busy.append(rep_ns / (2.0 * (spans[i][2] - spans[i][1])))
    out["experiments.w2.busy_frac"] = _median(busy)

    # Thread time: the pass's wall time plus the busy time of pool threads,
    # so that layer shares of a workers=2 ensemble add up to at most 100 %.
    total_ns = wall_s * 1e9 + sum(
        s[2] - s[1] for s in spans
        if s[3] is not None and s[4] != spans[s[3]][4]
    )
    if total_ns > 0:
        out["paths.build_edges.share"] = float(
            _durations_ms(spans, "paths.build_edges").sum() * 1e6 / total_ns * 100.0
        )
        for layer in LAYERS:
            own = sum(
                self_ns[i] for i, s in enumerate(spans) if s[0].split(".")[0] == layer
            )
            out[f"layer.{layer}.self_pct"] = float(own / total_ns * 100.0)
    return out

