"""Machine-speed probe: times a fixed reference kernel between passes.

On a shared machine the core's speed drifts by 20-40 % over tens of
seconds (other work on the same host), which swamps a change in tbdag.
Each measured interval is therefore bracketed by two samples of a fixed
kernel that does not touch tbdag, and its duration is rescaled to
seconds at the kernel's nominal speed:

    scaled = raw * NOMINAL_S / mean(sample before, sample after)

A change to tbdag moves the scaled time by the same share as the raw
time.  A slower machine moves both the interval and the kernel, and
mostly cancels.  Over 26 s windows of ``build-sweep`` passes on a 2-core
machine, the spread between window medians (interquartile range over
median) was 0.09 raw, 0.12 with one kernel run per sample, and 0.05
with the median of three.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median time of ``kernel()`` on the 2-core machine the
# baselines were taken on (Python 3.11.7, NumPy 2.4.6).  It only sets the
# unit of scaled times: any constant gives the same spreads and ratios.
NOMINAL_S = 0.040


def kernel() -> float:
    """Fixed interpreter and NumPy work in tbdag's mix: tuple keys in a
    dict, a sort, and small-array arithmetic."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(120_000):
        key = (i % 1009, i % 7)
        counts[key] = counts.get(key, 0) + i
    ordered = sorted(counts.values())
    a = np.arange(2048.0)
    for _ in range(180):
        a = np.sqrt(a + 1.0)
    return ordered[0] + float(a[0])


class SpeedProbe:
    """Tracks the machine's speed with ``kernel`` timings.

    A sample is the median of ``REPEATS`` kernel runs, which filters out
    single runs caught by a short stall.
    """

    REPEATS = 3

    def __init__(self):
        self.samples: list[float] = []
        self._last = self._sample()

    def _sample(self) -> float:
        runs = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(runs))
        return self.samples[-1]

    def scale(self) -> float:
        """Factor that turns the time since the previous sample into
        seconds at nominal speed; takes a new sample."""
        before, self._last = self._last, self._sample()
        return NOMINAL_S / ((before + self._last) / 2)
