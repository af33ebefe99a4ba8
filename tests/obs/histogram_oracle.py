"""The earlier per-element ``Histogram.observe`` loop, kept as a test oracle.

``Histogram.observe_many`` buckets a whole batch with NumPy and continues
the running total with a sequential ``cumsum``.
``tests/obs/test_histogram_batching.py`` holds it to this one-value-at-a-
time fold: bucket counts, count, the total to the bit, min and max.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["ScalarHistogram"]


class ScalarHistogram:
    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
