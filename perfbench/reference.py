"""A fixed reference kernel that tracks how fast the machine is running.

On a shared machine the speed of a single Python thread drifts by up to
2x over tens of seconds, with no change in the program.  So each run
times a fixed kernel, independent of rootfield, between requests (at
least every SAMPLE_EVERY_S), and reports each time at reference speed:

    reported = measured * REFERENCE_S / median(kernel samples near it)

where the samples near a request are those taken within WINDOW_S of it,
or the three nearest in time when fewer fall in the window.

A change to the library moves the measured time and not the kernel, so
it shows in full; a machine that runs everything 1.5x slower moves both
and cancels.  The kernel is products in the checker's own ring, the same
mix of interpreter work and bigint multiplication as the library's.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

from .checker import Ring

# one kernel pass at the typical speed of a 2-vCPU Xeon KVM guest under
# Python 3.11; only the unit of the reported times depends on it
REFERENCE_S = 0.004
SAMPLE_EVERY_S = 0.25
WINDOW_S = 2.0
_FIELD = (3, 97)
_PRODUCTS = 50
_PASSES = 3


class Reference:
    def __init__(self, moduli):
        self._ring = Ring(_FIELD[0], moduli[_FIELD])
        rng = random.Random(0)
        m = self._ring.m
        self._a = [rng.randrange(_FIELD[0]) for _ in range(m)]
        self._b = [rng.randrange(_FIELD[0]) for _ in range(m)]
        self.times: list[float] = []
        self.samples: list[float] = []
        self._last = 0.0
        self.sample(keep=False)

    def sample(self, keep: bool = True) -> None:
        """The median of a few kernel passes, stamped with its midpoint."""
        ring, a, b = self._ring, self._a, self._b
        passes = []
        for _ in range(_PASSES):
            t0 = time.perf_counter()
            for _ in range(_PRODUCTS):
                a = ring.mul(a, b)
            passes.append(time.perf_counter() - t0)
        self._last = time.perf_counter()
        if keep:
            self.times.append(self._last - sum(passes) / 2)
            self.samples.append(statistics.median(passes))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from seconds measured over [t0, t1] to seconds at
        reference speed."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.samples[lo:hi]
        if len(near) < 3:
            mid = (t0 + t1) / 2
            order = sorted(range(len(self.times)),
                           key=lambda i: abs(self.times[i] - mid))
            near = [self.samples[i] for i in order[:3]]
        return REFERENCE_S / statistics.median(near)
