"""Machine speed, sampled alongside the timed work.

The benchmark shares a small machine whose speed drifts by tens of percent
over seconds, as other work on the host comes and goes.  A :class:`Meter`
times a fixed reference computation (interpreted loop, small-array NumPy
calls and ``Fraction`` arithmetic, the three kinds of work ``hardyseq``
does) between timed calls, and :meth:`Meter.factor` turns the local median
of those samples into the factor that scales a wall time to the reference
speed: the speed at which the reference computation takes
``REFERENCE_S``.  The reference computation involves no ``hardyseq`` code,
so a change to the program moves scaled times exactly as it moves wall
times measured at constant machine speed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

import numpy as np

from spans import median

# Cost of one reference computation at the reference speed.
REFERENCE_S = 1.0e-3
# Half-width of the interval around a timed call whose samples set its speed.
WINDOW_S = 0.5
# A call's speed rests on at least this many samples (the nearest ones).
MIN_SAMPLES = 9
# Between timed calls, a sample is taken once this long has passed.
SAMPLE_EVERY_S = 0.1

_X = np.linspace(0.5, 1.5, 256)


def reference_work() -> float:
    s = 0.0
    for i in range(6000):
        s += i * 0.5
    for _ in range(120):
        s += float(np.maximum.accumulate(np.cumsum(_X))[-1])
    f = Fraction(0)
    for i in range(1, 240):
        f += Fraction(1, i % 16 + 1)
    return s + float(f)


class Meter:
    """Reference-computation samples: midpoint time and cost of each."""

    def __init__(self) -> None:
        self.marks = array("d")
        self.costs = array("d")
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            reference_work()
            t1 = perf_counter()
            self.marks.append(0.5 * (t0 + t1))
            self.costs.append(t1 - t0)
            self._last = t1

    def tick(self) -> None:
        """Take a sample if ``SAMPLE_EVERY_S`` has passed since the last one."""
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """``REFERENCE_S`` over the median sample cost around ``[t0, t1]``.

        The samples within ``WINDOW_S`` of the interval count; where there
        are fewer than ``MIN_SAMPLES``, the nearest ones to its midpoint.
        """
        n = len(self.marks)
        if n == 0:
            raise ValueError("no speed samples")
        lo = bisect_left(self.marks, t0 - WINDOW_S)
        hi = bisect_right(self.marks, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect_left(self.marks, 0.5 * (t0 + t1))
            lo = max(0, min(lo, mid - MIN_SAMPLES // 2))
            hi = min(n, max(hi, lo + MIN_SAMPLES))
            lo = max(0, min(lo, hi - MIN_SAMPLES))
        return REFERENCE_S / median(list(self.costs[lo:hi]))
