"""Contention probe: how fast the benchmark's CPU runs at each moment.

On a shared host other tenants slow this machine's vCPUs by up to about 2x.
The slowdown flips within seconds and drifts over minutes, so it moves a
run's timings far more than the program does.  The probe is a small process
pinned to the benchmark's CPU.  Every PERIOD_S it times a fixed
interpreter-bound kernel of about half a millisecond and notes when it did
so.  An operation's time divided by s ** elasticity, where s is the probe's
slowdown over that operation and elasticity is the workload's (see
workloads.Workload), is its time at the reference speed, the speed at which
the kernel takes NOMINAL_S.  The probe never imports the package, so the
program cannot slow the yardstick; it takes 1-2% of the CPU, the same
share in every run.

    python3 perfbench/probe.py    # sample until stdin closes, then print JSON
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
import os
import selectors
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.05
NOMINAL_S = 0.0005
# an operation with fewer samples than MIN_SAMPLES inside it is judged by
# the samples within WINDOW_S of its middle
MIN_SAMPLES = 5
WINDOW_S = 1.0


def kernel() -> float:
    """Seconds of the float and complex work of an alternating series."""
    t0 = time.perf_counter()
    total = 0.0 + 0.0j
    b = -1.0
    for k in range(1, 1300):
        ln = math.log(k)
        total += b * cmath.exp(-1.5 * ln)
        b = -b * (k - 0.5) / k
    return time.perf_counter() - t0


def sample_until_stdin_closes() -> None:
    sel = selectors.DefaultSelector()
    sel.register(sys.stdin, selectors.EVENT_READ)
    at: list[float] = []
    took: list[float] = []
    while not sel.select(PERIOD_S):
        at.append(time.perf_counter())
        took.append(kernel())
    print(json.dumps({"at": at, "took": took}), flush=True)
    os._exit(0)


class Probe:
    """Runs the probe process for the life of a `with` block; then
    `slowdown(t0, t1)` is the kernel's mean time over [t0, t1] in units of
    NOMINAL_S.  perf_counter is CLOCK_MONOTONIC, shared by every process."""

    def __init__(self, env: dict[str, str]) -> None:
        self.env = env
        self.at: list[float] = []
        self.took: list[float] = []

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__))], env=self.env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            out, _ = self.proc.communicate("x\n", timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if exc_type is None:
            if self.proc.returncode != 0 or not out:
                raise RuntimeError(f"probe exited with {self.proc.returncode}")
            data = json.loads(out)
            self.at, self.took = data["at"], data["took"]

    def mean_slowdown(self) -> float:
        return sum(self.took) / len(self.took) / NOMINAL_S

    def slowdown(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi - lo < MIN_SAMPLES:
            mid = (t0 + t1) / 2.0
            lo = bisect.bisect_left(self.at, mid - WINDOW_S)
            hi = bisect.bisect_right(self.at, mid + WINDOW_S)
        if hi <= lo:
            raise RuntimeError(f"no probe samples near [{t0}, {t1}]")
        return sum(self.took[lo:hi]) / (hi - lo) / NOMINAL_S


if __name__ == "__main__":
    sample_until_stdin_closes()
