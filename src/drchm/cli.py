"""Command-line driver for the experiment harness.

Usage:
    drchm <kind> --config CONFIG.json [--seed N] [--workers N] [--out DIR]

where <kind> is one of the experiment kinds (simulate, validate-gaussian,
validate-stable, validate-marks, oracle-report, sample-limit).  The config
file is JSON following the ExperimentConfig schema; --seed, --workers and
--out override the corresponding config entries.

Exit codes: 0 on success, 2 on a configuration or parameter-regime error or
an output directory that cannot be created, 3 when the interaction-weight
truncation loses more edges than tolerated.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .experiments import EXPERIMENT_KINDS, ExperimentConfig, run_experiment
from .model import RegimeError, TruncationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRUNCATION = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drchm",
        description="Edge-count simulation and limit-theorem validation "
        "for the dynamic random connection hypergraph model.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        cmd = sub.add_parser(kind, help=f"run the {kind} experiment")
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--seed", type=int, help="override the master seed")
        cmd.add_argument("--workers", type=int, help="replicate worker count")
        cmd.add_argument("--out", help="override the output directory")
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    if cfg.kind != args.kind:
        raise ValueError(
            f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}"
        )
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg, sampler=dataclasses.replace(cfg.sampler, master_seed=args.seed)
        )
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # made here, so that an unusable --out fails before any sampling starts
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = run_experiment(cfg)
    except RegimeError as exc:
        print(f"error: parameter regime: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TruncationError as exc:
        print(
            f"error: truncation: {exc} (lower sampler.w_min or raise "
            "sampler.missed_edge_tolerance)",
            file=sys.stderr,
        )
        return EXIT_TRUNCATION
    print(result["report"])
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
