#!/usr/bin/env python3
"""Record perfbench runs of one checkout into a ``BENCH_<n>.json`` file.

Usage (from the root of a checkout):

    python3 benchmarks/record.py BENCH_9.json --label change
    python3 benchmarks/record.py BENCH_9.json --label parent --checkout ../parent
    python3 benchmarks/record.py BENCH_9.json --label change --trace 1

Runs ``perfbench/run.py --seed 1 --seconds 20 --trace <0|1>`` of the
checkout on each workload, one workload at a time (mc-batch alone may use
the most memory), and appends one entry per run to the file's ``runs`` list:
the label, the workload, the trace setting, and the ``env`` and ``info``
lines and the result line that run.py printed. ``--trace 0`` (the default)
records the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run. The file is created when it does not exist, so several
invocations (the parent and the change, alternating) build up one record
made on one machine.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc-batch", "figures", "field-policies")


def parse_run(stdout: str) -> dict:
    """The env, info and result lines of one run.py output."""
    lines = stdout.strip().splitlines()
    out = {"result": json.loads(lines[-1])}
    decoder = json.JSONDecoder()
    for line in lines[:-1]:
        head, _, rest = line.partition(" ")
        if head in ("env", "info"):
            out[head] = decoder.raw_decode(rest)[0]  # info ends in "setup_samples=N"
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("out", type=Path, help="BENCH_<n>.json to create or extend")
    ap.add_argument("--label", required=True, help="e.g. parent or change")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="checkout whose perfbench/run.py runs (default: this one)")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeat to pick workloads (default: all)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 records the per-layer metrics of traced runs")
    args = ap.parse_args(argv)

    record = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    for workload in args.workload or WORKLOADS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "20", "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=args.checkout, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{workload}: run.py exited with {proc.returncode}", file=sys.stderr)
            return 1
        run = {"label": args.label, "workload": workload, "trace": args.trace,
               **parse_run(proc.stdout)}
        record["runs"].append(run)
        metrics = {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
        print(f"{args.label} {workload} correct={run['result']['correct']} {metrics}")
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
