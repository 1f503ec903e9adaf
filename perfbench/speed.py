"""Host-speed correction: wall time converted to reference-speed seconds.

On a shared host the same Python code runs up to twice as slow when other
tenants load the machine, and the slowdown changes within a second. CPU time
moves with wall time, so neither clock removes it. ``SpeedProbe.measure`` runs
a fixed probe (``REFERENCE_WORK``: Fraction arithmetic and dict stores, the
program's own kind of work) from a SIGALRM handler while the timed call
runs, first after ``FIRST_S`` and then every ``INTERVAL_S`` of wall time,
and once just before it. The probe's own
time is taken out of the call's wall time, and the rest is scaled by the mean
of ``REFERENCE_PROBE_S / probe time`` over the samples: the time the call
would take at the speed where the probe takes ``REFERENCE_PROBE_S``. That
constant is the probe's fastest time on the reference host (Python 3.11.7,
2 vCPUs), so on an idle reference host the two times agree.

The correction only divides out the host's speed: a change that makes the
program do less work lowers the corrected time in proportion.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_PROBE_S = 1.05e-3
FIRST_S = 0.005      # first sample inside the call, so short calls get one too
INTERVAL_S = 0.02
REFERENCE_WORK = 250


def probe() -> float:
    """Wall time of the fixed probe work; collection is paused so none lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, REFERENCE_WORK):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        table[(i, i % 7)] = acc.numerator % 1000
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def factor(samples) -> float:
    """Reference seconds per wall second, averaged over the samples."""
    return statistics.fmean(REFERENCE_PROBE_S / s for s in samples)


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._cost = 0.0

    def _sample(self, signum=None, frame=None):
        elapsed = probe()
        self.samples.append(elapsed)
        self._cost += elapsed

    def measure(self, fn, *args):
        """Run fn(*args); return (result, wall seconds, reference seconds)."""
        self.samples = []
        self._sample()
        self._cost = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, FIRST_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self._cost
        return result, wall, wall * factor(self.samples)
