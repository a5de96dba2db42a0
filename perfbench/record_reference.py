#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

Writes perfbench/reference.json from the relaysim in this checkout's src/:
the trial-CSV SHA-256 of mc-batch and the simulated-column sums of figures
for each of the REF_SEEDS program seeds, the analytic column of every figures
series, and the trial batches each experiment runs. Takes about ten minutes
and, like mc-batch itself, peaks near 3.5 GB. Re-record only when a change to relaysim
is meant to change these outputs, and say so with the change.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import REF_SEEDS, REFERENCE_PATH, Figures, McBatch  # noqa: E402


def record_mc_batch(workdir: Path) -> dict:
    digests = {}
    for seed in range(REF_SEEDS):
        wl = McBatch(seed, workdir, None)
        wl.ops()[0]()
        digests[str(wl.program_seed)] = wl.csv_digest()
        print(f"mc-batch program seed {wl.program_seed}: {digests[str(wl.program_seed)]}",
              flush=True)
    return {"sha256": digests}


def record_figures(workdir: Path) -> dict:
    analytic, simulated, batches = {}, {}, {}
    for seed in range(REF_SEEDS):
        wl = Figures(seed, workdir, None)
        sums = simulated[str(wl.program_seed)] = {}
        for name, op in zip(wl.names, wl.ops()):
            tracer = Tracer()
            with tracer.installed():
                op()
            calls = tracer.get("montecarlo.run_trials").calls
            if batches.setdefault(name, calls) != calls:
                raise RuntimeError(f"{name}: batch count depends on the seed")
            rows = wl.rows(name)
            sums[name] = wl.simulated_sums(rows)
            series = {}
            for x, s, a, _, _ in rows:
                series.setdefault(s, []).append([x, a])
            known = analytic.setdefault(name, {})
            for s, values in series.items():
                if len(values) > len(known.get(s, [])):
                    known[s] = values
        print(f"figures program seed {wl.program_seed} recorded", flush=True)
    return {"analytic": analytic, "simulated": simulated, "batches": batches}


def main() -> int:
    workdir = ROOT / ".perfbench-work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reference = {"figures": record_figures(workdir),
                     "mc-batch": record_mc_batch(workdir)}
    finally:
        shutil.rmtree(ROOT / ".perfbench-work", ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
