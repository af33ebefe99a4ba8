"""Textbook one-observation-at-a-time P² (Jain & Chlamtac, CACM 1985).

The reference :class:`repro.control.telemetry.P2Quantile` is checked
against: its batched ``add_many`` must reproduce this recursion bit for
bit, for every way of splitting a stream into batches.  Kept out of
``src/`` on purpose — it is a test oracle, not a second implementation.
"""

from __future__ import annotations

import math
from bisect import insort

import numpy as np


class TextbookP2:
    """Five markers, per-element update, generic parabolic/linear step."""

    def __init__(self, percentile: float) -> None:
        self.percentile = float(percentile)
        self.count = 0
        p = self.percentile / 100.0
        self._p = p
        self._dn = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)
        self._q = None
        self._n = None
        self._np = None
        self._initial = []

    def add(self, x: float) -> None:
        x = float(x)
        self.count += 1
        if self._q is None:
            insort(self._initial, x)
            if len(self._initial) == 5:
                p = self._p
                self._q = list(self._initial)
                self._n = [0, 1, 2, 3, 4]
                self._np = [0.0, 2.0 * p, 4.0 * p, 2.0 + 2.0 * p, 4.0]
            return
        q, n, npos = self._q, self._n, self._np
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1
        for i in range(5):
            npos[i] += self._dn[i]
        for i in (1, 2, 3):
            d = npos[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1) or (
                d <= -1.0 and n[i - 1] - n[i] < -1
            ):
                step = 1 if d > 0 else -1
                candidate = self._parabolic(i, step)
                if not (q[i - 1] < candidate < q[i + 1]):
                    candidate = self._linear(i, step)
                q[i] = candidate
                n[i] += step

    def _parabolic(self, i: int, d: int) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: int) -> float:
        q, n = self._q, self._n
        return q[i] + d * (q[i + d] - q[i]) / (n[i + d] - n[i])

    @property
    def value(self) -> float:
        if self.count == 0:
            return math.nan
        if self._q is None:
            return float(np.percentile(self._initial, self.percentile))
        return self._q[2]
