"""One workload in one fresh process: set up, run timed passes, check outputs.

Started by ``run.py``, never by hand. Prints one JSON object as the last line
of standard output. ``--setup-only`` stops after set-up and reports only its time.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import relaysim  # noqa: E402  (needs the checkout's src on the path)

if not Path(relaysim.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"relaysim imported from {relaysim.__file__}, not from {ROOT / 'src'}")

from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, OpFailed, load_reference  # noqa: E402
import layers  # noqa: E402


def run_pass(workload, ops, probe=None):
    """Time each operation; a raised exception becomes that op's output.

    With a ``probe``, the host's speed is also read between operations,
    outside their times."""
    outputs, latencies = [], []
    clock = time.perf_counter
    for op in ops:
        t0 = clock()
        try:
            out = op()
        except Exception:  # a failed operation is counted, not fatal
            out = OpFailed(traceback.format_exc(limit=3))
        latencies.append(clock() - t0)
        outputs.append(out)
        if probe is not None:
            probe.tick(latencies[-1])
    verdicts = workload.check(outputs)
    failures = [v for v in verdicts if v is not None]
    for message in failures[:3]:
        print(f"check failed: {message}", file=sys.stderr)
    return sum(latencies), latencies, len(ops), len(failures)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def timed_run(workload, seconds, probe):
    walls, latencies, warm_walls = [], [], []
    attempted = failed = 0
    while len(warm_walls) < workload.warm_passes:
        wall, _, n_ops, n_failed = run_pass(workload, workload.ops())
        warm_walls.append(wall)
        attempted += n_ops
        failed += n_failed
    group = workload.ops_per_request
    while sum(walls) < seconds:
        wall, lat, n_ops, n_failed = run_pass(workload, workload.ops(), probe)
        walls.append(wall)
        latencies += [sum(lat[i:i + group]) for i in range(0, len(lat), group)]
        attempted += n_ops
        failed += n_failed
    # Totals over the whole run, not medians of passes: a median of a few
    # long passes jumps with the one in the middle. The host's speed is the
    # median of the readings taken between the run's operations.
    timed = sum(walls)
    scale = probe.scale(statistics.median(probe.readings))
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {
            "wall_s": (scale * timed / len(walls), "s"),
            "items_per_s": (workload.items_per_pass * len(walls) / (scale * timed), "1/s"),
        },
        "info": {"passes": len(walls), "timed_s": timed, "raw_wall_s": timed / len(walls),
                 "raw_items_per_s": workload.items_per_pass * len(walls) / timed,
                 "speed_scale": scale, "probe_readings": len(probe.readings),
                 "probe_median": statistics.median(probe.readings),
                 "warm_pass_s": warm_walls, "requests": len(latencies),
                 "call_p50_us": 1e6 * statistics.median(latencies),
                 "call_p99_us": 1e6 * percentile(latencies, 99),
                 "item": workload.item, **_xcheck(workload)},
    }


def _xcheck(workload) -> dict:
    """Rows of the last pass where |analytic - simulated| > 4 stderr (figures)."""
    rows = getattr(workload, "xcheck_miss_rows", None)
    return {} if rows is None else {"xcheck_miss_rows": rows}


def traced_run(workload, seconds):
    """Pairs of passes over the same inputs, untraced then traced, until
    ``seconds`` have been measured; per-layer metrics are per traced pass.
    A first, unmeasured pass takes the one-off costs (first touch of the
    batch's memory) out of the untraced side of the overhead estimate."""
    ops = workload.ops()
    tracer = Tracer()
    plain, traced = [], []
    _, _, attempted, failed = run_pass(workload, ops)
    while sum(plain) + sum(traced) < seconds:
        wall, _, n_ops, n_failed = run_pass(workload, ops)
        plain.append(wall)
        with tracer.installed():
            wall, _, n_ops2, n_failed2 = run_pass(workload, ops)
        traced.append(wall)
        attempted += n_ops + n_ops2
        failed += n_failed + n_failed2
    xcheck = getattr(workload, "xcheck_miss_rows", 0)
    return {
        "attempted": attempted, "failed": failed,
        "metrics": layers.per_layer(tracer, len(traced), sum(traced), sum(plain), xcheck),
        "info": {"pairs": len(traced), "untraced_wall_s": plain, "traced_wall_s": traced,
                 "traced_self_s": tracer.total_self_s()},
    }


def environment(workload):
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    import numpy
    import scipy
    return {
        "cpus": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numba_imports": has_numba, "kernel_backend": relaysim.kernel_backend(),
        "program_seed": getattr(workload, "program_seed", None),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, load_reference())
        workload.warm_up()
        setup_s = time.monotonic() - args.t0
        with SpeedProbe() as probe:
            # Set-up at the reference speed, read by the probe just after it.
            result = {"setup_s": setup_s * probe.scale(probe.read()), "raw_setup_s": setup_s}
            if args.trace:
                result.update(traced_run(workload, args.seconds))
            elif not args.setup_only:
                result.update(timed_run(workload, args.seconds, probe))
        if not args.setup_only:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["env"] = environment(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
