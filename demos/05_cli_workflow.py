"""Drive the command-line interface end to end from Python.

Writes a JSON experiment configuration, invokes the CLI entry point for a
simulation run and the oracle report, and prints the emitted JSONL.  The
same invocations work from a shell:

    drchm simulate --config sim.json --out out/
    drchm oracle-report --config sim.json --out out/

Run:  python demos/05_cli_workflow.py
"""

import json
import pathlib
import tempfile

from drchm.cli import main

with tempfile.TemporaryDirectory(prefix="drchm_demo_") as tmp:
    workdir = pathlib.Path(tmp)
    config = {
        "model": {"beta": 0.25, "gamma": 0.2, "gamma_prime": 0.2, "n": 100.0},
        "sampler": {"master_seed": 7},
        "kind": "simulate",
        "replicates": 25,
        "eval_times": [0.25, 0.5, 0.75],
        "write_paths": True,
    }
    cfg_file = workdir / "sim.json"
    cfg_file.write_text(json.dumps(config, indent=2))

    out_dir = workdir / "out"
    code = main(["simulate", "--config", str(cfg_file), "--out", str(out_dir)])
    print(f"simulate exit code: {code}")

    summary = (out_dir / "simulate_summary.jsonl").read_text().strip().split("\n")
    print(f"report lines: {len(summary)}")
    print("summary record:")
    print(json.dumps(json.loads(summary[-1])["per_time"], indent=2))

    csvs = sorted(out_dir.glob("replicate_*.csv"))
    print(f"\nper-replicate step-path CSVs: {len(csvs)}; first rows of {csvs[0].name}:")
    print("\n".join(csvs[0].read_text().split("\n")[:4]))

    # rerunning with the same seed reproduces the report byte for byte
    rerun = workdir / "rerun"
    main(["simulate", "--config", str(cfg_file), "--out", str(rerun)])
    identical = (rerun / "simulate_summary.jsonl").read_bytes() == (
        out_dir / "simulate_summary.jsonl"
    ).read_bytes()
    print(f"\nbyte-identical rerun: {identical}")
