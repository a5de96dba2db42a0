#!/usr/bin/env python3
"""relaysim benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc-batch --seed 1 --seconds 20 --trace 0

Workloads: mc-batch, figures, field-policies (see README.md).
Each runs as a closed loop with one caller, single-threaded, in a fresh
process started here; set-up is measured in SETUP_SAMPLES fresh processes and
reported as their median. End-to-end timings are scaled to the reference
speed that ``probe.py`` reads between operations. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-module metrics of traced passes
(unscaled). The last line of
standard output is the result; the lines before it give the environment,
every metric with its unit, and the output checks. Exits non-zero without a
result when the workload cannot run.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# run.py uses only the standard library; workloads.py defines these three.
WORKLOADS = ("mc-batch", "figures", "field-policies")
ALIASES = {"mc-batch": "trials_per_s", "figures": "trials_per_s",
           "field-policies": "fields_per_s"}
SETUP_SAMPLES = 3  # fresh processes timed to set-up; the measuring run is one of them
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("PYTHONPATH", None)  # relaysim must come from this checkout's src/
    return env


def run_worker(args, extra, deadline) -> dict:
    """Start one worker, wait for it, return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0), *extra]
    # A session of its own, so that a timeout also ends the worker's speed
    # probe helper.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_runs = [] if args.trace else [
            run_worker(args, ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker(args, [], deadline)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass

    env = dict(result["env"], git_commit=git_commit(), workload=args.workload,
               seed=args.seed, seconds=args.seconds, trace=args.trace,
               threads={v: child_env()[v] for v in THREAD_VARS})
    print("env " + json.dumps(env, sort_keys=True))
    info = result["info"]
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        setups = setup_runs + [result]
        info["raw_setup_s"] = [p["raw_setup_s"] for p in setups]
        metrics = {"setup_s": {"value": statistics.median(p["setup_s"] for p in setups),
                               "unit": "s"},
                   **metrics,
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}
        print(f"info {json.dumps(info, sort_keys=True)} setup_samples={len(setups)}")
        print(f"alias {ALIASES[args.workload]} = items_per_s ({info['item']} per second)")
    else:
        print("info " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"check attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={failed_frac:.6g}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
