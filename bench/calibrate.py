"""Host-speed calibration for the benchmark's timings.

The machine the benchmark targets is shared: its speed for one process
drifts by tens of percent over tens of seconds, longer than a run.  So every
timed interval is divided by the host's current speed factor, measured with
a fixed reference kernel (exact-rational convolution plus an integer loop,
the same instruction mix as the workloads, using no ``symtail`` code):

    factor = (reference kernel time near the interval) / NOMINAL_S
    calibrated time = wall time / factor

A calibrated time reads as the wall time on a host that runs the kernel in
NOMINAL_S.  While the passes run, a SIGALRM timer times the kernel every
PERIOD_S seconds, also inside long calls; the kernel's own time is taken
out of the call it interrupted.  Each interval's factor is the median over
the samples near it, so one descheduled sample does not move it.

Set-up runs in child processes and is mostly interpreter start-up and
imports, which a busy host slows differently from the kernel.  So a set-up
probe is calibrated by a reference child that does the same kind of work:
a fresh interpreter that imports a fixed set of standard-library modules.
Its factor is the reference child's CPU time over REFERENCE_CHILD_S, the
mean of the runs just before and after the probe.
"""

from __future__ import annotations

import bisect
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0025
PERIOD_S = 0.1
WINDOW_S = 0.5  # samples this close to a timed interval set its factor
REFERENCE_CHILD_S = 0.05
REFERENCE_CHILD = (
    sys.executable, "-c",
    "import argparse, csv, dataclasses, decimal, fractions, json, statistics, typing",
)

_XS = [Fraction(i, 7) for i in range(-8, 9)]
_MASS = Fraction(1, 17)


def reference() -> int:
    masses: dict[Fraction, Fraction] = {}
    for x in _XS:
        for y in _XS:
            z = x + y
            masses[z] = masses.get(z, Fraction(0)) + _MASS * _MASS
    acc = 0
    for i in range(8000):
        acc += (i * i) & 1023
    return acc + len(masses)


def child_cpu_s() -> float:
    """CPU seconds (user + system) of the ended children of this process."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reference_child_cpu_s() -> float:
    """CPU seconds of one run of the reference child."""
    start = child_cpu_s()
    subprocess.run(REFERENCE_CHILD, check=True, capture_output=True, timeout=60)
    return child_cpu_s() - start


class Sampler:
    """Times the reference kernel every PERIOD_S seconds while active."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.cost: list[float] = []
        self.paused = 0.0  # total kernel time, to subtract from timed calls
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        reference()
        cost = perf_counter() - t0
        self.at.append(t0)
        self.cost.append(cost)
        self.paused += cost

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Speed factor from the median kernel time over the samples within
        WINDOW_S of [start, end], and at least the nearest one each side."""
        lo = max(0, min(bisect.bisect_left(self.at, start - WINDOW_S),
                        bisect.bisect_left(self.at, start) - 1))
        hi = max(bisect.bisect_right(self.at, end + WINDOW_S),
                 bisect.bisect_right(self.at, end) + 1)
        return statistics.median(self.cost[lo:hi]) / NOMINAL_S
