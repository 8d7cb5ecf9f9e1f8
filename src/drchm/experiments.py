"""Batch experiment harness: configuration, replicate orchestration, and
report emission.

Every experiment is described by an ExperimentConfig (parsed from JSON with
unknown keys rejected) and produces JSONL reports plus optional CSV path
files.  Replicates map to RNG streams by index, so results are independent
of execution order and of the worker count; aggregation always runs over
the replicate-ordered arrays.  Floats are serialized with their shortest
round-trip representation (non-finite ones as null), and no timestamps are
emitted, so reruns of the same configuration are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .catalog import lemma_catalog_check
from .limits import (
    MAX_GRID_POINTS,
    GaussianGrid,
    epsilon_refinement_study,
    sample_gaussian_path,
    sample_stable_path,
    stable_marginals,
)
from .model import ModelParams, check_number, require_gaussian, require_stable
from .oracles import (
    CovarianceConstants,
    adjudicated_constants,
    mean_edge_count,
    oracle_covariance,
    oracle_variance,
    printed_covariance,
    printed_variance_limit,
    stable_band_variance,
    stable_mean,
)
from .paths import (
    _write_csv,
    build_edges,
    edge_count_at,
    edge_count_path,
    mark_split_paths,
    pm_edge_count_paths,
)
from .sampler import SamplerConfig, sample_interactions, sample_limit_points, sample_vertices
from .stats import (
    cross_covariance,
    hill_tail_index,
    ks_distance,
    mean_variance,
    normality_statistic,
    omnibus_threshold,
)

# Kinds whose runners read the middle entry of eval_times.
_NEEDS_EVAL_TIMES = ("validate-gaussian", "validate-stable", "validate-marks")

# Disjoint stream ranges for the independent sections of one experiment.
_STREAM_BLOCK = 1_000_000

# Largest window length: a replicate holds about 2n vertices, so at 1e9 it
# already needs tens of gigabytes, and numpy's Poisson sampler stops near 9e18.
MAX_WINDOW = 1e9

# Smallest truncation level of the heavy-tailed limit: a limit replicate
# holds about 2 / epsilon jump points, as a window holds about 2n vertices,
# so the same memory bound applies to a limit path (sample_limit_points and
# StablePath's dense evaluation).  The limit marginals hold one block of
# whole replicates, not a chunk of them, so they do not scale with
# 1 / epsilon until one replicate outgrows a block.
MIN_EPSILON = 1 / MAX_WINDOW

# Most replicate worker threads.  A fixed cap, not one based on the core
# count, so that a config valid on one machine is valid on all.
MAX_WORKERS = 256

# Integer fields and their least and greatest values.  82 is the fewest jump
# samples for which hill_tail_index's default k = ceil(sqrt(count)) has
# 10 <= k < count / 2.
_INT_FIELDS = (
    ("replicates", 1, math.inf),
    ("jump_samples", 82, math.inf),
    ("workers", 1, MAX_WORKERS),
    ("grid_points", 2, MAX_GRID_POINTS),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model, sampler, kind, and orchestration knobs.

    eval_times are the horizon times at which marginals are recorded;
    n_ladder (when empty, a kind-specific default) is the sequence of window
    lengths for convergence checks; epsilon / ks_epsilon / eps_sequence are
    truncation levels for the heavy-tailed limit; u_threshold is the
    mark-split threshold (default min(1, n^(-2/3))).
    """

    model: ModelParams
    sampler: SamplerConfig
    kind: str
    replicates: int = 1
    eval_times: tuple = (0.25, 0.5, 0.75)
    out_dir: str = "."
    write_paths: bool = False
    n_ladder: tuple = ()
    epsilon: float = 0.01
    ks_epsilon: float = 0.005
    eps_sequence: tuple = (0.1, 0.05, 0.025, 0.0125)
    u_threshold: float | None = None
    jump_samples: int = 100_000
    grid_points: int = 101
    workers: int = 1

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment kind {self.kind!r}; "
                f"expected one of {EXPERIMENT_KINDS}"
            )
        check_number("model.n", self.model.n, 0, MAX_WINDOW, hi_closed=True)
        times = _entries("eval_times", self.eval_times, 0, 1, lo_closed=True, hi_closed=True)
        if times != tuple(sorted(times)):
            raise ValueError(f"eval_times must be sorted, got {times}")
        if not times and self.kind in _NEEDS_EVAL_TIMES:
            raise ValueError(f"{self.kind} needs at least one eval_times entry")
        object.__setattr__(self, "eval_times", times)
        ladder = _entries("n_ladder", self.n_ladder, 0, MAX_WINDOW, hi_closed=True)
        object.__setattr__(self, "n_ladder", ladder)
        eps = _entries(
            "eps_sequence", self.eps_sequence, MIN_EPSILON, 1, lo_closed=True, hi_closed=True
        )
        if len(eps) < 2 or not _decreasing(eps):
            raise ValueError(f"eps_sequence must be 2+ decreasing values, got {eps}")
        object.__setattr__(self, "eps_sequence", eps)
        for name in ("epsilon", "ks_epsilon"):
            check_number(name, getattr(self, name), MIN_EPSILON, 1, lo_closed=True, hi_closed=True)
        if self.u_threshold is not None:
            check_number("u_threshold", self.u_threshold, 0, 1)
        for name, least, most in _INT_FIELDS:
            check_number(
                name, getattr(self, name), least, most,
                lo_closed=True, hi_closed=most < math.inf, integer=True,
            )
        if not isinstance(self.write_paths, bool):
            raise ValueError(f"write_paths must be true or false, got {self.write_paths!r}")
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise ValueError(f"out_dir must be a non-empty path, got {self.out_dir!r}")

    def mark_threshold_at(self, n) -> float:
        """Mark-split threshold at window length n: u_threshold or
        min(1, n^(-2/3)); below n = 1 every vertex is low-mark."""
        if self.u_threshold is not None:
            return self.u_threshold
        return min(1.0, float(n) ** (-2.0 / 3.0))

    @property
    def mark_threshold(self) -> float:
        """Mark-split threshold at the model's window length."""
        return self.mark_threshold_at(self.model.n)

    @property
    def t_mid(self) -> float:
        """The middle entry of eval_times, where the single-time checks run."""
        return self.eval_times[len(self.eval_times) // 2]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Strict construction: unknown or missing keys anywhere are an
        error; an absent sampler section means SamplerConfig()."""
        if isinstance(data, dict):
            data = {"sampler": {}, **data}
            model = data.get("model")
            # the config's range for n, before ModelParams' wider [0, inf)
            if isinstance(model, dict) and "n" in model:
                check_number("model.n", model["n"], 0, MAX_WINDOW, hi_closed=True)
        return _build_strict(cls, data, "config", model=ModelParams, sampler=SamplerConfig)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _entries(name: str, values, lo, hi, **closed) -> tuple:
    """A list field as a tuple of floats, each entry checked by check_number."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {values!r}")
    for value in values:
        check_number(f"{name} entry", value, lo, hi, **closed)
    return tuple(float(v) for v in values)


def _build_strict(cls, data: dict, label: str, **sections):
    """cls(**data), with unknown keys and absent fields that have no default
    rejected; each keyword names a key of data that is itself built strictly
    as the given class."""
    if not isinstance(data, dict):
        raise ValueError(f"{label} must be a mapping, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown {label} keys: {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in data and f.default is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{label} is missing required key {missing[0]!r}")
    built = {key: _build_strict(sub, data[key], key) for key, sub in sections.items()}
    return cls(**{**data, **built})


# ---------------------------------------------------------------------------
# replicate ensembles


def normalization(params: ModelParams) -> tuple[float, float]:
    """Centering and scale of the normalized edge count: (E S_n, scale) with
    scale = sqrt(n) in the Gaussian regime and n^gamma in the stable one."""
    center = mean_edge_count(params)
    if params.regime == "gaussian":
        return center, math.sqrt(params.n)
    return center, float(params.n) ** params.gamma


def _sample_edges(params: ModelParams, scfg: SamplerConfig, stream: int):
    """One replicate's vertices, interactions and edges, from one stream."""
    vs = sample_vertices(params, scfg, stream)
    interactions = sample_interactions(params, scfg, vs, stream)
    return vs, interactions, build_edges(params, vs, interactions)


def _simulate_one(
    params: ModelParams,
    scfg: SamplerConfig,
    stream: int,
    eval_times,
    u_threshold: float | None = None,
) -> dict:
    """One replicate: vertex/interaction sample, edges, and marginals of the
    right-continuous edge-count path (edge_count_path) at eval_times.

    When u_threshold is given, low/high mark marginals and the sup over the
    horizon of the centered high-mark path are recorded as well; counts ==
    low_counts + high_counts.
    """
    vs, interactions, edges = _sample_edges(params, scfg, stream)
    times = np.array(eval_times, dtype=float, ndmin=1)
    out = {
        "counts": edge_count_at(edges, times),
        "missed_edge_bound": interactions.missed_edge_bound,
        "edges": len(edges),
    }
    if u_threshold is not None:
        low, high = mark_split_paths(edges, vs, u_threshold)
        out["low_counts"] = low(times)
        out["high_counts"] = high(times)
        high_mean = mean_edge_count(params, u_threshold, 1.0)
        out["high_sup"] = float(np.max(np.abs(high.values - high_mean)))
    return out


def edge_count_ensemble(
    params: ModelParams,
    scfg: SamplerConfig,
    eval_times,
    replicates: int,
    u_threshold: float | None = None,
    workers: int = 1,
    stream_offset: int = 0,
) -> dict:
    """Replicate ensemble of edge-count marginals as stacked arrays.

    Streams are stream_offset + replicate index, so the ensemble is fully
    reproducible and independent of the worker count.
    """
    results = _replicate_map(
        lambda s: _simulate_one(params, scfg, s, eval_times, u_threshold),
        range(stream_offset, stream_offset + replicates),
        workers,
    )
    return {key: np.stack([r[key] for r in results]) for key in results[0]}


def _replicate_map(task, streams, workers: int) -> list:
    """[task(s) for s in streams] on min(workers, usable cores) threads, or
    serially when that is 1.  Each replicate draws only from its own streams,
    so the thread count cannot change the results.

    The calling thread is one of the threads: it starts the others as a pool
    of one fewer, and every thread takes the next replicate from one locked
    counter and stores its result at the replicate's index.  The caller
    reuses the heap its own work has grown, so only the pool's threads open
    new malloc arenas.  Once a replicate raises, no new replicate starts, and
    when the running ones are done the lowest failing replicate's exception
    is raised, as the serial loop raises it: replicates start in index
    order, so every lower one has started by then."""
    affinity = getattr(os, "sched_getaffinity", None)
    threads = min(workers, len(affinity(0)) if affinity else os.cpu_count() or 1)
    if threads <= 1:
        return [task(s) for s in streams]
    streams = list(streams)
    results = [None] * len(streams)
    failures = {}
    lock = threading.Lock()
    indices = iter(range(len(streams)))

    def work():
        while True:
            with lock:
                i = None if failures else next(indices, None)
            if i is None:
                return
            try:
                results[i] = task(streams[i])
            except BaseException as exc:
                with lock:
                    failures[i] = exc
                if not isinstance(exc, Exception):
                    raise  # an interrupt or exit ends this thread at once

    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        helpers = [pool.submit(work) for _ in range(threads - 1)]
        work()
        for helper in helpers:
            helper.result()
    if failures:
        raise failures[min(failures)]
    return results


def _window_ladder(cfg: ExperimentConfig, ladder, eval_times):
    """Yields (n, params at n, mark threshold at n, mark-split ensemble)
    per window length; window k draws from stream block k + 1."""
    for k, n in enumerate(ladder):
        params_n = dataclasses.replace(cfg.model, n=float(n))
        threshold = cfg.mark_threshold_at(n)
        ensemble = edge_count_ensemble(
            params_n, cfg.sampler, eval_times, cfg.replicates,
            u_threshold=threshold, workers=cfg.workers,
            stream_offset=(k + 1) * _STREAM_BLOCK,
        )
        yield float(n), params_n, threshold, ensemble


def write_jsonl(path, records) -> None:
    """One strict-JSON line per record; non-finite floats become null."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(strict_json(rec) + "\n")


def strict_json(record) -> str:
    """json.dumps with every non-finite float written as null, so the text
    is strict JSON (no NaN or Infinity tokens)."""
    return json.dumps(_finite_or_null(record), allow_nan=False)


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _outputs(cfg: ExperimentConfig, *names) -> list[str]:
    """Paths of the named output files in cfg.out_dir, which is created."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    return [os.path.join(cfg.out_dir, name) for name in names]


def _within_4se(estimate, target, se) -> bool:
    """|estimate - target| <= 4 se, and false when se is missing (non-finite)."""
    return bool(math.isfinite(se) and abs(estimate - target) <= 4.0 * se)


def _matches(value, oracle) -> bool:
    """Agreement with a quadrature oracle: relative 1e-6, absolute below 1."""
    return bool(abs(value - oracle) <= 1e-6 * max(abs(oracle), 1.0))


def _decreasing(values) -> bool:
    return all(b < a for a, b in zip(values[:-1], values[1:]))


# ---------------------------------------------------------------------------
# experiment runners


def run_simulate(cfg: ExperimentConfig) -> dict:
    """Per-replicate marginals (and optional path CSVs) plus a summary."""
    [report] = _outputs(cfg, "simulate_summary.jsonl")
    center, scale = normalization(cfg.model)

    def path_file(rep: int) -> str:
        return os.path.join(cfg.out_dir, f"replicate_{rep:06d}.csv")

    def replicate(rep: int) -> dict:
        _, interactions, edges = _sample_edges(cfg.model, cfg.sampler, rep)
        if cfg.write_paths:
            edge_count_path(edges).to_csv(path_file(rep))
        counts = edge_count_at(edges, cfg.eval_times)
        return {
            "replicate": rep,
            "eval_times": list(cfg.eval_times),
            "edge_count": [float(c) for c in counts],
            "normalized": [float((c - center) / scale) for c in counts],
            "missed_edge_bound": interactions.missed_edge_bound,
            "edges": len(edges),
        }

    records = _replicate_map(replicate, range(cfg.replicates), cfg.workers)
    counts = np.array([r["edge_count"] for r in records])
    summary = {
        "section": "summary",
        "kind": "simulate",
        "replicates": cfg.replicates,
        "mean_center": center,
        "scale": scale,
        "per_time": [
            {"t": t, **mean_variance(counts[:, i])}
            for i, t in enumerate(cfg.eval_times)
        ],
        "max_missed_edge_bound": float(
            np.max([r["missed_edge_bound"] for r in records])
        ),
    }
    write_jsonl(report, records + [summary])
    paths = [path_file(rep) for rep in range(cfg.replicates)] if cfg.write_paths else []
    return {"report": report, "paths": paths, "summary": summary}


def run_validate_gaussian(cfg: ExperimentConfig) -> dict:
    """Variance/covariance against the integral oracles, normality, and
    low-mark negligibility across a window-length ladder."""
    require_gaussian(cfg.model)
    p = cfg.model
    if 0.25 < p.gamma < 0.5 or 0.25 < p.gamma_prime < 0.5:
        warnings.warn(
            "gamma or gamma_prime lies in (1/4, 1/2): the Gaussian limit "
            "holds but finite-n bias is larger; interpret 4-SE bands with care",
            stacklevel=2,
        )
    [report] = _outputs(cfg, "validate_gaussian.jsonl")
    center, scale = normalization(p)
    ensemble = edge_count_ensemble(
        p, cfg.sampler, cfg.eval_times, cfg.replicates, workers=cfg.workers
    )
    normed = (ensemble["counts"] - center) / scale
    records = []

    for i, t in enumerate(cfg.eval_times):
        mom = mean_variance(normed[:, i])
        oracle = oracle_variance(p, float(t)) / p.n
        records.append(
            {
                "section": "variance",
                "t": float(t),
                **mom,
                "oracle_variance": oracle,
                "printed_variance_limit": printed_variance_limit(p),
                "printed_covariance_lag0": printed_covariance(p, 0.0),
                "within_4se": _within_4se(mom["variance"], oracle, mom["variance_se"]),
            }
        )

    for i, t1 in enumerate(cfg.eval_times):
        for j, t2 in enumerate(cfg.eval_times[i:], start=i):
            if cfg.replicates >= 3:
                cov, se = cross_covariance(normed[:, i], normed[:, j])
            else:
                cov, se = float("nan"), float("inf")
            orc = oracle_covariance(p, t1, t2)
            printed = printed_covariance(p, t2 - t1)
            adjudicated = float(adjudicated_constants(p).covariance(t2 - t1))
            records.append(
                {
                    "section": "covariance",
                    "t1": t1,
                    "t2": t2,
                    "lag": t2 - t1,
                    "covariance": cov,
                    "covariance_se": se,
                    "oracle_covariance": orc.oracle,
                    "printed_covariance": printed,
                    "adjudicated_covariance": adjudicated,
                    "within_4se": _within_4se(cov, orc.oracle, se),
                    "oracle_matches_printed": _matches(printed, orc.oracle),
                }
            )

    threshold = omnibus_threshold()
    for i, t in enumerate(cfg.eval_times):
        try:
            skew_z, kurt_z, omnibus = normality_statistic(normed[:, i])
        except ValueError:  # fewer than 100 replicates, or a constant column
            skew_z = kurt_z = omnibus = float("nan")
        records.append(
            {
                "section": "normality",
                "t": float(t),
                "skew_z": skew_z,
                "kurt_z": kurt_z,
                "omnibus": omnibus,
                "threshold_99_9": threshold,
                "reject": bool(omnibus > threshold),
            }
        )

    ladder = cfg.n_ladder or (100, 400)
    low_vars = []
    for n, _, thr, ens in _window_ladder(cfg, ladder, (cfg.t_mid,)):
        mom = mean_variance(ens["low_counts"][:, 0] / math.sqrt(n))
        low_vars.append(mom["variance"])
        records.append(
            {
                "section": "low_mark",
                "n": n,
                "t": cfg.t_mid,
                "u_threshold": thr,
                "variance": mom["variance"],
                "variance_se": mom["variance_se"],
            }
        )
    records.append(
        {
            "section": "low_mark_trend",
            "n_ladder": [float(n) for n in ladder],
            "variances": low_vars,
            "decreasing": _decreasing(low_vars),
        }
    )

    write_jsonl(report, records)
    return {"report": report, "records": records}


def _collect_jumps(cfg: ExperimentConfig) -> np.ndarray:
    """Jump sizes from the limiting-process sampler, cfg.jump_samples many."""
    parts = [np.array([])]
    total = 0
    stream = 10 * _STREAM_BLOCK
    while total < cfg.jump_samples:
        parts.append(sample_limit_points(cfg.model, cfg.epsilon, cfg.sampler, stream).j)
        total += len(parts[-1])
        stream += 1
    return np.concatenate(parts)[: cfg.jump_samples]


def run_validate_stable(cfg: ExperimentConfig) -> dict:
    """Tail index, marginal convergence to the truncated limit, high-mark
    negligibility, and the epsilon-refinement study."""
    require_stable(cfg.model)
    p = cfg.model
    if p.gamma_prime >= 0.25:
        warnings.warn(
            "gamma_prime >= 1/4: heavier interaction-weight tails slow the "
            "stable-limit convergence; interpret acceptance bands with care",
            stacklevel=2,
        )
    [report] = _outputs(cfg, "validate_stable.jsonl")
    jumps = _collect_jumps(cfg)
    alpha, alpha_se = hill_tail_index(jumps)
    records = [
        {
            "section": "hill_jumps",
            "samples": len(jumps),
            "alpha": alpha,
            "alpha_se": alpha_se,
            "target": 1.0 / p.gamma,
            "within_4se": _within_4se(alpha, 1.0 / p.gamma, alpha_se),
        }
    ]

    ladder = cfg.n_ladder or (200, 2000)
    limit_raw = stable_marginals(
        p, cfg.ks_epsilon, cfg.t_mid, cfg.replicates, cfg.sampler,
        stream=11 * _STREAM_BLOCK,
    )
    limit_centered = limit_raw - stable_mean(p, cfg.ks_epsilon)
    ks_values = []
    sup_medians = []
    for n, pn, thr, ens in _window_ladder(cfg, ladder, (cfg.t_mid, 1.0)):
        center, scale = normalization(pn)
        ks = ks_distance((ens["counts"][:, 0] - center) / scale, limit_centered)
        ks_values.append(ks)
        sup_median = float(np.median(ens["high_sup"] / scale))
        sup_medians.append(sup_median)
        records.append(
            {
                "section": "ks_ladder",
                "n": n,
                "t": cfg.t_mid,
                "ks_epsilon": cfg.ks_epsilon,
                "ks_distance": ks,
                "high_mark_sup_median": sup_median,
                "u_threshold": thr,
            }
        )
    records.append(
        {
            "section": "ks_trend",
            "n_ladder": [float(n) for n in ladder],
            "ks_values": ks_values,
            "ks_decreasing": _decreasing(ks_values),
            "high_mark_sup_medians": sup_medians,
            "sup_decreasing": _decreasing(sup_medians),
        }
    )

    # Hill is not shift-invariant, so the last window's (pn, ens) terminal
    # edge counts are centered first and only the positive exceedances enter
    # the estimator; k is capped at 200 (deeper order statistics pick up
    # pre-limit curvature).
    exceedances = ens["counts"][:, 1] - mean_edge_count(pn)
    exceedances = exceedances[exceedances > 0]
    k = min(200, len(exceedances) // 4)
    if k >= 10:
        alpha_s, alpha_s_se = hill_tail_index(exceedances, k)
    else:
        alpha_s, alpha_s_se = float("nan"), float("inf")
    records.append(
        {
            "section": "hill_edge_count",
            "n": pn.n,
            "replicates": cfg.replicates,
            "exceedances": int(len(exceedances)),
            "k": int(k),
            "alpha": alpha_s,
            "alpha_se": alpha_s_se,
            "target": 1.0 / p.gamma,
        }
    )

    refinement = epsilon_refinement_study(
        p, cfg.eps_sequence, cfg.replicates, cfg.sampler,
        stream=12 * _STREAM_BLOCK,
    )
    records.append(
        {
            "section": "refinement",
            "eps_sequence": list(refinement.eps_sequence),
            "medians": [float(m) for m in refinement.medians],
            "strictly_decreasing": refinement.medians_strictly_decreasing,
        }
    )

    write_jsonl(report, records)
    return {"report": report, "records": records}


def run_validate_marks(cfg: ExperimentConfig) -> dict:
    """Exact pathwise identities and mark-split mean checks, per replicate.

    Verifies on every replicate that the plus/minus decomposition and the
    low/high mark split reconstruct the edge count exactly, and compares the
    split means against the closed-form mark-restricted mean.
    """
    [report] = _outputs(cfg, "validate_marks.jsonl")
    p = cfg.model
    thr = cfg.mark_threshold

    def replicate(rep: int) -> tuple[dict, float, float]:
        vs, _, edges = _sample_edges(p, cfg.sampler, rep)
        path = edge_count_path(edges)
        plus, minus = pm_edge_count_paths(edges)
        low, high = mark_split_paths(edges, vs, thr)
        # Every plus, minus, low and high event time is an event of path.
        grid = np.append(path.times, 1.0)
        record = {
            "section": "replicate",
            "replicate": rep,
            "pm_identity_max_abs_err": float(
                np.max(np.abs(plus(grid) - minus(grid) - path(grid)))
            ),
            "split_identity_max_abs_err": float(
                np.max(np.abs(low(grid) + high(grid) - path(grid)))
            ),
            "monotone_pm": bool(
                np.all(np.diff(plus.values) >= 0)
                and np.all(np.diff(minus.values) >= 0)
            ),
        }
        return record, float(low(cfg.t_mid)), float(high(cfg.t_mid))

    results = _replicate_map(replicate, range(cfg.replicates), cfg.workers)
    records = [r for r, _, _ in results]
    low_mom = mean_variance([low for _, low, _ in results])
    high_mom = mean_variance([high for _, _, high in results])
    summary = {
        "section": "summary",
        "u_threshold": thr,
        "low_mean": low_mom["mean"],
        "low_mean_se": low_mom["mean_se"],
        "low_mean_oracle": mean_edge_count(p, 0.0, thr),
        "high_mean": high_mom["mean"],
        "high_mean_se": high_mom["mean_se"],
        "high_mean_oracle": mean_edge_count(p, thr, 1.0),
        "max_pm_identity_err": max(r["pm_identity_max_abs_err"] for r in records),
        "max_split_identity_err": max(r["split_identity_max_abs_err"] for r in records),
    }
    records.append(summary)
    write_jsonl(report, records)
    return {"report": report, "records": records}


def run_oracle_report(cfg: ExperimentConfig) -> dict:
    """Lemma-catalog verification plus the covariance-constant adjudication."""
    report, catalog_path = _outputs(cfg, "oracle_report.jsonl", "lemma_catalog.jsonl")
    catalog = lemma_catalog_check(master_seed=cfg.sampler.master_seed)
    write_jsonl(
        catalog_path, [{**dataclasses.asdict(r), "passed": r.passed} for r in catalog]
    )

    records = []
    p = cfg.model
    if p.regime == "gaussian" and p.gamma_prime < 0.5:
        printed = CovarianceConstants.from_params(p)
        adjudicated = adjudicated_constants(p)
        for lag in (0.0, 0.2, 0.5):
            orc = oracle_covariance(p, 0.3, 0.3 + lag)
            rec = {
                "section": "covariance_adjudication",
                "lag": lag,
                "oracle": orc.oracle,
                "printed_covariance_form": float(printed.covariance(lag)),
                "adjudicated_form": float(adjudicated.covariance(lag)),
            }
            if lag == 0.0:
                rec["printed_variance_form"] = printed_variance_limit(p)
            for key in list(rec):
                if key.endswith("_form"):
                    rec[key.replace("_form", "_matches")] = _matches(rec[key], orc.oracle)
            records.append(rec)
    records.append(
        {
            "section": "catalog_summary",
            "checks": len(catalog),
            "failures": [r.lemma_id for r in catalog if not r.passed],
            # np.max keeps a NaN error wherever it sits; max() may drop it
            "max_equality_rel_err": float(
                np.max([r.max_rel_err for r in catalog if r.kind == "equality"], initial=0.0)
            ),
            "bound_violations": int(sum(r.bound_violations for r in catalog)),
        }
    )
    write_jsonl(report, records)
    return {"report": report, "catalog": catalog_path, "records": records}


def run_sample_limit(cfg: ExperimentConfig) -> dict:
    """Sample limit-process paths on a uniform output grid, as CSV files.

    The regime picks the limit: a Gaussian path on the grid for gamma < 1/2,
    the truncated jump path at cfg.epsilon for gamma > 1/2.
    """
    report, *files = _outputs(
        cfg, "sample_limit.jsonl",
        *(f"limit_path_{rep:06d}.csv" for rep in range(cfg.replicates)),
    )
    grid = np.linspace(0.0, 1.0, cfg.grid_points)
    if cfg.model.regime == "gaussian":
        ggrid = GaussianGrid.build(cfg.model, grid)

        def replicate(rep: int) -> dict:
            values = sample_gaussian_path(ggrid, cfg.sampler, rep)
            _write_grid_csv(files[rep], grid, values)
            return {
                "section": "replicate",
                "replicate": rep,
                "regime": "gaussian",
                "values_at_eval_times": [
                    float(np.interp(t, grid, values)) for t in cfg.eval_times
                ],
            }

        records = _replicate_map(replicate, range(cfg.replicates), cfg.workers)
    else:

        def replicate(rep: int) -> dict:
            sample = sample_stable_path(cfg.model, cfg.epsilon, cfg.sampler, rep)
            _write_grid_csv(files[rep], grid, sample.path(grid))
            return {
                "section": "replicate",
                "replicate": rep,
                "regime": "stable",
                "epsilon": cfg.epsilon,
                "mean": sample.mean,
                "points": len(sample.points),
                "values_at_eval_times": [
                    float(sample.path(t)) for t in cfg.eval_times
                ],
            }

        records = _replicate_map(replicate, range(cfg.replicates), cfg.workers)
        records.append(
            {
                "section": "summary",
                "epsilon": cfg.epsilon,
                "stable_mean": stable_mean(cfg.model, cfg.epsilon),
                "band_variance_0p1_0p01": stable_band_variance(cfg.model, 0.1, 0.01),
            }
        )
    write_jsonl(report, records)
    return {"report": report, "paths": files, "records": records}


def _write_grid_csv(path, times, values) -> None:
    """Limit-path samples on the output grid, in StepPath.to_csv's layout."""
    _write_csv(path, times, values)


RUNNERS = {
    "simulate": run_simulate,
    "validate-gaussian": run_validate_gaussian,
    "validate-stable": run_validate_stable,
    "validate-marks": run_validate_marks,
    "oracle-report": run_oracle_report,
    "sample-limit": run_sample_limit,
}
EXPERIMENT_KINDS = tuple(RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Dispatch on cfg.kind; see the individual runners."""
    return RUNNERS[cfg.kind](cfg)
