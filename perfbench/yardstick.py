"""A fixed host-speed yardstick, to take host drift out of host timings.

On a shared host the same work can run 25-70% slower for minutes at a
time, so raw wall times of two sets of runs made minutes apart do not
compare.  The yardstick is four small fixed computations, each standing
for one kind of work the simulator does: a Python-level numeric loop, a
dict and heap loop, cache-resident NumPy vector work, and memory-bound
NumPy gathers.  It is sampled once before every timed run, so its
samples and the runs see the same host conditions.  The geometric mean
of the parts' median times, divided by ``REFERENCE_S``, is the host's
*slowness*: about 1 on the host this benchmark was tuned on at its fast
speed, larger when the host is slow.  Dividing a median time by the
slowness gives the time at the reference speed.

The yardstick uses no simulator code, so a change to the simulator
cannot move it.
"""

from __future__ import annotations

import heapq
import math
import statistics
from time import perf_counter

import numpy as np

__all__ = ["Yardstick"]

#: Geometric mean of the four parts' median times, in seconds, on the
#: host the benchmark was tuned on (a 2-vCPU Xeon VM) at its fast speed.
REFERENCE_S = 0.015


class Yardstick:
    """Samples the four fixed computations and reports host slowness."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20090525)
        self._floats = rng.uniform(size=20_000).tolist()
        self._keys = rng.integers(0, 4_096, size=30_000).tolist()
        self._small = rng.uniform(size=200_000)
        self._big = rng.uniform(size=2_000_000)
        self._gather = rng.integers(0, 2_000_000, size=500_000)
        self._parts = (
            self._python_loop, self._dict_heap, self._numpy_small,
            self._numpy_big,
        )
        self._times = [[] for _ in self._parts]

    def _python_loop(self) -> None:
        q = [0.1, 0.3, 0.5, 0.7, 0.9]
        n = [1, 2, 3, 4, 5]
        for x in self._floats:
            for i in range(1, 4):
                d = q[i + 1] - q[i]
                if x > q[i]:
                    q[i] += 0.01 * d / (n[i] + 1)
                    n[i] += 1

    def _dict_heap(self) -> None:
        counts, heap = {}, []
        for k in self._keys:
            counts[k] = counts.pop(k, 0) + 1
            heapq.heappush(heap, k)
            if len(heap) > 64:
                heapq.heappop(heap)

    def _numpy_small(self) -> None:
        np.maximum.accumulate(np.cumsum(np.sort(self._small)))

    def _numpy_big(self) -> None:
        picked = self._big[self._gather]
        np.add.at(np.zeros(4_096), self._gather & 4_095, picked)
        np.sort(picked)

    def sample(self) -> None:
        """Time each part once."""
        for part, times in zip(self._parts, self._times):
            t0 = perf_counter()
            part()
            times.append(perf_counter() - t0)

    def slowness(self) -> float:
        """Geometric mean of the parts' median times over REFERENCE_S."""
        logs = [math.log(statistics.median(t)) for t in self._times]
        return math.exp(sum(logs) / len(logs)) / REFERENCE_S
