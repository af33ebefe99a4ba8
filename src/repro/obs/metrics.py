"""Counters, gauges, and histograms for run observability.

A small metrics registry subsumes the one-off counters that used to be
scattered across the engines (spinup/spindown tallies, cache stats,
controller bookkeeping): anything a run wants to report rolls up into a
:class:`MetricsRegistry` whose :meth:`~MetricsRegistry.snapshot` is a
plain-JSON dict.  :func:`observability_snapshot` builds the structured
snapshot attached to ``SimulationResult.extra["obs"]`` from a finished
result plus (optionally) the observer that watched it.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS_SNAPSHOT_VERSION",
    "observability_snapshot",
]

#: Version of the ``extra["obs"]`` snapshot layout.
OBS_SNAPSHOT_VERSION = 1

#: Default histogram bucket bounds for response times, in seconds
#: (log-spaced from sub-ms cache hits to multi-minute spin-up stalls).
DEFAULT_RESPONSE_BOUNDS = (
    0.001,
    0.003,
    0.01,
    0.03,
    0.1,
    0.3,
    1.0,
    3.0,
    10.0,
    30.0,
    100.0,
    300.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bound bucketed distribution with exact count/total/min/max.

    ``counts`` has ``len(bounds) + 1`` entries; ``counts[i]`` holds
    observations ``<= bounds[i]`` (last bucket is the overflow).
    """

    __slots__ = (
        "name", "bounds", "counts", "count", "total", "min", "max", "_edges"
    )

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_RESPONSE_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted: {bounds!r}")
        self._edges = np.array(self.bounds, dtype=float)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.observe_many([value])

    def observe_many(self, values: Sequence[float]) -> None:
        """Fold a batch, exactly as observing each value in order would.

        A value lands in the first bucket whose bound is ``>=`` it
        (``searchsorted`` on the left).  The total continues the running
        sum with a sequential ``cumsum``, so it is bit-equal to adding one
        value at a time, whatever the batch split.  A NaN or infinite
        value raises ``ValueError`` and leaves the histogram unchanged.
        """
        v = np.asarray(values, dtype=float).ravel()
        if not v.size:
            return
        finite = np.isfinite(v)
        if not finite.all():
            bad = float(v[int(np.argmin(finite))])
            raise ValueError(
                f"histogram {self.name!r} got a non-finite value {bad!r}"
            )
        buckets = np.bincount(
            np.searchsorted(self._edges, v, side="left"),
            minlength=len(self.counts),
        )
        self.counts = [c + n for c, n in zip(self.counts, buckets.tolist())]
        self.count += int(v.size)
        self.total = float(np.cumsum(np.concatenate(([self.total], v)))[-1])
        lo = float(v.min())
        hi = float(v.max())
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi

    def snapshot(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "mean": (self.total / self.count) if self.count else None,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_RESPONSE_BOUNDS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, bounds)
        return metric

    def snapshot(self) -> Dict[str, Any]:
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
        }


def _state_totals(result: Any) -> Dict[str, float]:
    """Pool-total seconds per state label (``DiskState`` or ladder str)."""
    durations = getattr(result, "state_durations", None) or {}
    totals: Dict[str, float] = {}
    for state, seconds in durations.items():
        label = getattr(state, "name", None)
        label = label.lower() if isinstance(label, str) else str(state)
        totals[label] = totals.get(label, 0.0) + float(seconds)
    return totals


def observability_snapshot(result: Any, observer: Any = None) -> Dict[str, Any]:
    """Build the ``extra["obs"]`` snapshot for a finished run.

    Rolls the result's own tallies (arrivals, spin transitions, energy,
    per-state residency, cache stats, response distribution) into one
    registry, and merges the event counts of an observer that carries a
    ``registry`` attribute (e.g. ``repro.obs.trace.TraceRecorder``).
    """
    registry = MetricsRegistry()

    registry.counter("run.arrivals").inc(int(getattr(result, "arrivals", 0) or 0))
    registry.counter("run.spinups").inc(int(getattr(result, "spinups", 0) or 0))
    registry.counter("run.spindowns").inc(int(getattr(result, "spindowns", 0) or 0))

    registry.gauge("run.duration_s").set(float(getattr(result, "duration", 0.0) or 0.0))
    energy = getattr(result, "energy_per_disk", None)
    if energy is not None:
        registry.gauge("run.energy_j").set(float(sum(energy)))
        registry.gauge("run.num_disks").set(float(len(energy)))

    for label, seconds in _state_totals(result).items():
        registry.gauge(f"state.{label}_s").set(seconds)

    cache_stats = getattr(result, "cache_stats", None)
    if cache_stats is not None:
        for field in ("hits", "misses", "insertions", "evictions", "rejected"):
            value = getattr(cache_stats, field, None)
            if value is not None:
                registry.counter(f"cache.{field}").inc(int(value))

    responses = getattr(result, "response_times", None)
    if responses is not None and len(responses):
        registry.histogram("response_s").observe_many(responses)
    elif responses is None:
        # Streaming-metrics run: the per-request array was never
        # materialized, but the bounded accumulator still knows the
        # distribution — report it as gauges so observed
        # ``metrics_mode="streaming"`` runs keep a response section.
        stats = getattr(result, "response_stats", None)
        if stats is not None and stats.count:
            registry.gauge("response.count").set(float(stats.count))
            registry.gauge("response.mean_s").set(stats.mean)
            registry.gauge("response.min_s").set(stats.min)
            registry.gauge("response.max_s").set(stats.max)
            for name, value in (
                ("p50", stats.p50), ("p95", stats.p95), ("p99", stats.p99)
            ):
                # NaN (pre-warmup estimator or a lossy merge) is not a
                # measurement; omit the gauge rather than publish it.
                if not math.isnan(value):
                    registry.gauge(f"response.{name}_s").set(value)

    snapshot = {"version": OBS_SNAPSHOT_VERSION, "run": registry.snapshot()}

    events: Optional[MetricsRegistry] = getattr(observer, "registry", None)
    if isinstance(events, MetricsRegistry):
        snapshot["events"] = events.snapshot()
    return snapshot
