"""Fixed-size records of what a run measured.

A run keeps no per-operation list: the harness's own memory would then grow
with the number of operations and show in ``peak_rss_mb``, so a faster
program would look as if it used more memory. Sums and log-spaced
histograms take the same space however many operations a run makes.
"""

from __future__ import annotations

import math
from array import array


class LogHistogram:
    """Counts of positive values in bins 1% wide, from ``lo`` to ``hi``.

    Quantiles are good to half a bin (0.5%); values below ``lo`` or above
    ``hi`` count in the first or last bin.
    """

    RATIO = 1.01

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.log_ratio = math.log(self.RATIO)
        self.counts = array("q", bytes(8 * (int(math.log(hi / lo) / self.log_ratio) + 2)))
        self.n = 0

    def add(self, x: float) -> None:
        i = int(math.log(x / self.lo) / self.log_ratio) + 1 if x > self.lo else 0
        self.counts[min(i, len(self.counts) - 1)] += 1
        self.n += 1

    def quantile(self, q: float) -> float:
        """The value below which a share ``q`` of the values fall (bin middle)."""
        if not self.n:
            return 0.0
        target, seen = q * self.n, 0
        for i, c in enumerate(self.counts):
            seen += c
            if c and seen >= target:
                return self.lo if i == 0 else self.lo * self.RATIO ** (i - 0.5)
        return self.lo * self.RATIO ** (len(self.counts) - 1.5)


class OpStats:
    """Operations measured: their count, total time, total points solved and
    the distribution of time per point."""

    def __init__(self):
        self.ops = 0
        self.ns = 0
        self.points = 0
        self.us_per_point = LogHistogram(0.1, 1e6)

    def add(self, ns: int, points: int) -> None:
        self.ops += 1
        self.ns += ns
        self.points += points
        self.us_per_point.add(ns / 1e3 / points)

    def mean_ns_per_point(self) -> float:
        return self.ns / self.points
