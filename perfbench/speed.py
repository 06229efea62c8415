"""Speed adjustment of wall times on a machine whose CPU speed drifts.

On a shared machine the speed one process sees drifts by +-25% over tens
of seconds, which swamps the difference between two commits. The probe
times two fixed pieces of work that touch no fairfeas code, each the
median of three runs: an interpreter-bound loop of exact rational
arithmetic, like the solver's, and cumulative sums over an array the size
of a region prefix table, which is bound by memory as the region tables,
the CSV loading and the detector marking are. Timing one operation of
each workload again and again, the geometric mean of the two tracked the
operation's time better than either alone. The probe runs in a
helper process of its own, started once per run, so that the heap and
caches the benchmarked program leaves behind cannot change its cost. A
wall time multiplied by PROBE_REF_S / (probe time around it) is the time
the same work would have taken at the reference speed.

    python3 perfbench/speed.py      # the helper: one probe per input line
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

#: A typical probe on the machine the baseline was taken on (2 vCPU
#: x86-64, Python 3.11.7, numpy 2.4.6); adjusted times are seconds at that
#: speed. baseline.json gives the adjusted/raw ratio of each median.
PROBE_REF_S = 0.0098
REPEATS = 3
TABLE_SIDE = 102  # (n + 2) for region-sweep's n = 100


def _spin() -> int:
    half, scale, hits = Fraction(1, 2), Fraction(3, 5), 0
    for i in range(1, 1500):
        if Fraction(i % 97, i) * scale <= half:
            hits += 1
    return hits


def _median_time(work) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_probe(table) -> float:
    """Geometric mean of the loop's and the array sums' times, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        loop = _median_time(_spin)
        sums = _median_time(lambda: table.cumsum(0).cumsum(1).cumsum(2))
    finally:
        if enabled:
            gc.enable()
    return (loop * sums) ** 0.5


class SpeedAdjuster:
    """Scales consecutive wall times by the probes taken between them.

    `close` stops the helper process and waits for it.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.probes: list[float] = []
        self.last = self.probe()

    def probe(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe process ended")
        self.probes.append(float(line))
        return self.probes[-1]

    def __call__(self, wall: float) -> float:
        probe = self.probe()
        scale = PROBE_REF_S / ((self.last + probe) / 2)
        self.last = probe
        return wall * scale

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


def serve() -> None:
    import numpy as np

    table = np.random.default_rng(0).integers(0, 2, (TABLE_SIDE,) * 3, dtype=np.int64)
    for _ in sys.stdin:
        print(speed_probe(table), flush=True)


if __name__ == "__main__":
    serve()
