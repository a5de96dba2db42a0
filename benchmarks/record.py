#!/usr/bin/env python3
"""Record perfbench runs of one checkout into a ``BENCH_<n>.json`` file.

Usage (from the root of a checkout):

    python3 benchmarks/record.py BENCH_9.json --label change
    python3 benchmarks/record.py BENCH_9.json --label parent --checkout ../parent
    python3 benchmarks/record.py BENCH_9.json --label change --trace 1
    python3 benchmarks/record.py BENCH_9.json --summary

Runs ``perfbench/run.py --seed <seed> --seconds 20 --trace <0|1>`` of the
checkout (``--seed 1`` by default) on each workload, one workload at a time
(mc-batch alone may use the most memory), and appends one entry per run to
the file's ``runs`` list: the label, the workload, the seed, the trace
setting, and the ``env`` and ``info`` lines and the result line that run.py
printed. ``--trace 0`` (the default) records the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The file is created when
it does not exist, so several invocations (the parent and the change,
alternating) build up one record made on one machine.

``--summary`` runs nothing: for each workload, seed and end-to-end metric of
the untraced runs it prints each label's median and quartiles, and in how
many parent/change pairs (the i-th run of each label) the change was better.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc-batch", "figures", "field-policies")
END_TO_END = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


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


def quartiles(values: list) -> tuple:
    """(lower quartile, median, upper quartile), interpolated between ranks."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(record: dict) -> list:
    """One line per workload, seed and end-to-end metric of the untraced runs."""
    series = {}  # (workload, seed, metric) -> {label: [value, ...]} in run order
    for run in record["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            if name in END_TO_END:
                key = (run["workload"], run.get("seed", 1), name)
                series.setdefault(key, {}).setdefault(run["label"], []).append(metric["value"])
    lines = []
    for (workload, seed, name), by_label in series.items():
        parts = []
        for label, values in by_label.items():
            q1, q2, q3 = quartiles(values)
            parts.append(f"{label} {q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
        pairs = list(zip(by_label.get("parent", []), by_label.get("change", [])))
        sign = 1 if END_TO_END[name] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        lines.append(f"{workload} seed={seed} {name}: {'; '.join(parts)}; "
                     f"change better in {wins}/{len(pairs)} pairs")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("out", type=Path, help="BENCH_<n>.json to create or extend")
    ap.add_argument("--label", help="e.g. parent or change (required unless --summary)")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="checkout whose perfbench/run.py runs (default: this one)")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeat to pick workloads (default: all)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 records the per-layer metrics of traced runs")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    ap.add_argument("--summary", action="store_true",
                    help="print the record's medians, quartiles and pair wins; run nothing")
    args = ap.parse_args(argv)

    if args.summary:
        print("\n".join(summary(json.loads(args.out.read_text()))))
        return 0
    if args.label is None:
        ap.error("--label is required unless --summary is given")
    record = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    for workload in args.workload or WORKLOADS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(args.seed), "--seconds", "20", "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=args.checkout, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{workload}: run.py exited with {proc.returncode}", file=sys.stderr)
            return 1
        run = {"label": args.label, "workload": workload, "seed": args.seed,
               "trace": args.trace, **parse_run(proc.stdout)}
        record["runs"].append(run)
        metrics = {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
        print(f"{args.label} {workload} correct={run['result']['correct']} {metrics}")
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
