"""Host speed probe: a fixed piece of work timed between workload operations.

The benchmark's host is a share of a machine whose speed moves between levels
up to 1.8 times apart, and stays at one for seconds to minutes. A run that
happens to sit at a slow level reads up to 1.8 times slower than one at a
fast level, with no change to the program. The probe measures that level as
the run goes. It never calls relaysim, so no change to the program moves it.

The probe's work is a fresh 256 MB array, more than twice the host's
last-level cache, filled, scaled and summed. Each allocation maps it anew,
so the work pays page faults, memory bandwidth and a little arithmetic, as
relaysim's batches do. It runs in a helper process, started with the probe
and stopped with it, so that its pages never count in the workload's peak
resident memory. The workload calls ``tick()`` after each operation, and the
probe takes a reading after every READ_EVERY_S of operation time. A reading
is the median of REPEATS timings over the work's time on the reference host:
1.0 at the reference speed, larger when the host is slower. ``scale()``
turns a time measured at a reading into the time the same work takes on the
reference host at its usual speed.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

# Median time of the work on the reference host: a 2-vCPU VM (Intel Xeon,
# 105 MB L3), Python 3.11.7, numpy 2.4.6, at its usual speed.
REFERENCE_S = 0.135
REPEATS = 3  # one reading is the median of this many timings
READ_EVERY_S = 2.0  # operation time between two readings
FLOATS = 32 * 2 ** 20  # 256 MB


def _work() -> float:
    a = np.ones(FLOATS)
    a *= 2.0
    return float(a.sum())


def _timings() -> list[float]:
    clock = time.perf_counter
    times = []
    for _ in range(REPEATS):
        t0 = clock()
        _work()
        times.append(clock() - t0)
    return times


class SpeedProbe:
    """Use as a context manager: leaving it stops the helper process."""

    def __init__(self):
        self.readings: list[float] = []
        self._since_read = 0.0
        self._helper = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        self._helper.stdout.readline()  # its start would slow the first reading

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._helper.stdin.close()  # the helper ends at end of input
        self._helper.wait()

    def tick(self, seconds: float) -> None:
        """Count ``seconds`` of operation time; read when READ_EVERY_S are due."""
        self._since_read += seconds
        if self._since_read >= READ_EVERY_S:
            self.read()

    def read(self) -> float:
        """Time the probe now: the host's slowness, 1.0 at the reference speed."""
        self._helper.stdin.write("time\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe helper exited with {self._helper.wait()}")
        self.readings.append(statistics.median(json.loads(line)) / REFERENCE_S)
        self._since_read = 0.0
        return self.readings[-1]

    @staticmethod
    def scale(reading: float) -> float:
        """Factor from a time measured at ``reading`` to the reference speed."""
        return 1.0 / reading


if __name__ == "__main__":  # the helper: one line of timings per request
    _work()  # first calls of a process are slower
    print("ready", flush=True)
    for _ in sys.stdin:
        print(json.dumps(_timings()), flush=True)
