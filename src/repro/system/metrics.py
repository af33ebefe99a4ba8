"""Simulation result container, derived metrics, and streaming accumulators.

Two power metrics appear in the paper and both are provided:

* **pairwise saving** (Figure 2): ``1 - E_self / E_other`` against a
  baseline run over the same duration;
* **normalized power cost** (Figure 5): ``E / (N * P_idle * T)`` — energy as
  a fraction of spinning all ``N`` disks with no power management — with
  ``power_saving_normalized = 1 - cost``.

Out-of-core runs (``StorageConfig(metrics_mode="streaming")``) do not
materialize the per-request response array: :class:`ResponseAccumulator`
folds responses chunk by chunk into bounded state (count / serial sum /
min / max plus P² percentile estimators), and :class:`SimulationResult`
answers ``mean_response`` / ``p95_response`` / ... from the resulting
:class:`ResponseStats` when ``response_times`` is ``None``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.cache.base import CacheStats
from repro.control.telemetry import P2Quantile
from repro.disk.power import DiskState
from repro.errors import SimulationError

__all__ = ["ResponseAccumulator", "ResponseStats", "SimulationResult"]

_NO_COMPLETIONS_MSG = (
    "no completed requests in this run; response statistics are undefined "
    "(returning NaN)"
)


def _nan_no_completions() -> float:
    warnings.warn(_NO_COMPLETIONS_MSG, RuntimeWarning, stacklevel=4)
    return math.nan


@dataclass(frozen=True)
class ResponseStats:
    """Bounded-memory summary of a run's response times.

    ``total`` is the serial (left-to-right) sum of every response, so
    ``total / count`` reproduces the monolithic mean bit-for-bit regardless
    of how the stream was chunked.  The percentiles are P² estimates
    (see :class:`~repro.control.telemetry.P2Quantile`): approximate, but
    deterministic in the global response order and therefore independent
    of the chunk partition.
    """

    count: int
    total: float
    min: float
    max: float
    p50: float
    p95: float
    p99: float
    #: Observations actually folded into the P² estimators (all of the
    #: first ``ResponseAccumulator.P2_WARMUP`` responses, then every
    #: ``P2_STRIDE``-th — a deterministic thinning, not a random sample).
    p2_observations: int = 0
    #: A lossy :meth:`merge` already happened somewhere upstream (and
    #: warned); percentiles are ``nan`` and further merges stay silent.
    percentiles_lost: bool = False

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @staticmethod
    def merge(parts: "list") -> "ResponseStats":
        """Combine stats from independent sub-runs (e.g. reorganization
        epochs).  ``count``/``min``/``max`` merge exactly and ``total``
        to float-regrouping noise; the P² percentile estimators cannot be
        combined after the fact, so the merged percentiles are ``nan``
        unless exactly one non-empty part contributes them.

        Dropping the percentiles is loud: the first lossy merge emits a
        :class:`RuntimeWarning` and marks the result
        (:attr:`percentiles_lost`), so chained merges — epochs folded
        pairwise, or a merged result merged again — warn **once** per
        chain rather than once per fold.
        """
        parts = [p for p in parts if p is not None]
        live = [p for p in parts if p.count]
        if not live:
            return ResponseStats(
                count=0, total=0.0, min=math.nan, max=math.nan,
                p50=math.nan, p95=math.nan, p99=math.nan,
            )
        if len(live) == 1:
            return live[0]
        if not any(p.percentiles_lost for p in live):
            warnings.warn(
                "ResponseStats.merge cannot combine P² percentile "
                "estimators: merged p50/p95/p99 are NaN. Compute "
                "percentiles per part before merging (each part keeps "
                "its own estimates), or re-run unchunked with "
                "metrics_mode='full' if you need exact merged tails.",
                RuntimeWarning,
                stacklevel=2,
            )
        return ResponseStats(
            count=sum(p.count for p in live),
            total=sum(p.total for p in live),
            min=min(p.min for p in live),
            max=max(p.max for p in live),
            p50=math.nan,
            p95=math.nan,
            p99=math.nan,
            p2_observations=0,
            percentiles_lost=True,
        )

    def percentile(self, q: float) -> Optional[float]:
        """The tracked estimate for ``q``, or ``None`` if ``q`` is not one
        of the three tracked percentiles (50 / 95 / 99)."""
        for target, value in ((50.0, self.p50), (95.0, self.p95), (99.0, self.p99)):
            if abs(float(q) - target) < 1e-9:
                return value
        return None


class ResponseAccumulator:
    """Folds response times chunk by chunk into a :class:`ResponseStats`.

    Exactness contract (the streaming differential axis asserts it):

    * ``count`` / ``min`` / ``max`` are exact;
    * ``total`` (hence the mean) is the *serial* sum in global response
      order — ``np.add.at`` into a one-element carry continues the exact
      monolithic left-to-right reduction across chunk boundaries, so the
      result is bit-identical for every partition of the same stream;
    * percentiles are P² estimates fed in global order.  Every response is
      fed until :data:`P2_WARMUP`; past that only every
      :data:`P2_STRIDE`-th response (by *global* index) is folded in, so
      the estimate stays partition-invariant.  The thinning once kept the
      three estimators' Python loop (~1.2 us per fed response) from
      throttling the kernel; the compiled fold costs ~0.05 us, so the
      stride now only keeps recorded percentiles what they were;
    * a chunk holding a NaN or infinite response raises
      :class:`~repro.errors.SimulationError` and leaves the state as it was.
    """

    #: Feed the P² estimators every response until this many have arrived.
    P2_WARMUP = 65_536
    #: After warmup, feed every ``P2_STRIDE``-th response (global index).
    P2_STRIDE = 8

    __slots__ = ("count", "_sum", "_min", "_max", "_p50", "_p95", "_p99")

    def __init__(self) -> None:
        self.count = 0
        self._sum = np.zeros(1)
        self._min = math.inf
        self._max = -math.inf
        self._p50 = P2Quantile(50.0)
        self._p95 = P2Quantile(95.0)
        self._p99 = P2Quantile(99.0)

    def add(self, values: np.ndarray) -> None:
        """Fold one chunk of responses (in global response order)."""
        v = np.ascontiguousarray(values, dtype=float).ravel()
        n = int(v.size)
        if not n:
            return
        if not np.isfinite(v).all():
            raise SimulationError(
                f"response times must be finite; got "
                f"{v[~np.isfinite(v)][0]} in a chunk of {n}"
            )
        start = self.count
        # Serial continuation of the monolithic left-to-right sum.
        np.add.at(self._sum, np.zeros(n, dtype=np.intp), v)
        self._min = min(self._min, float(v.min()))
        self._max = max(self._max, float(v.max()))
        # Deterministic warmup + stride selection by global index.
        warm_end = min(max(self.P2_WARMUP - start, 0), n)
        feed = v[:warm_end]
        if start + n > self.P2_WARMUP:
            first = max(self.P2_WARMUP, start)
            offset = (first - start) + (-(first - self.P2_WARMUP)) % self.P2_STRIDE
            strided = v[offset :: self.P2_STRIDE]
            feed = strided if not warm_end else np.concatenate([feed, strided])
        if feed.size:
            self._p50.add_many(feed)
            self._p95.add_many(feed)
            self._p99.add_many(feed)
        self.count += n

    def result(self) -> ResponseStats:
        """Freeze the current state into an immutable :class:`ResponseStats`."""
        empty = self.count == 0
        return ResponseStats(
            count=self.count,
            total=float(self._sum[0]),
            min=math.nan if empty else self._min,
            max=math.nan if empty else self._max,
            p50=self._p50.value,
            p95=self._p95.value,
            p99=self._p99.value,
            p2_observations=self._p50.count,
        )


@dataclass
class SimulationResult:
    """Everything measured in one simulation run."""

    algorithm: str
    duration: float
    num_disks: int
    energy: float
    energy_per_disk: np.ndarray
    state_durations: Dict[DiskState, float]
    #: Per-request response times in completion order, or ``None`` for
    #: streaming-metrics runs (``metrics_mode="streaming"``) — then
    #: :attr:`response_stats` carries the bounded-memory summary and the
    #: response properties below answer from it.
    response_times: Optional[np.ndarray]
    arrivals: int
    completions: int
    spinups: int
    spindowns: int
    always_on_energy: float
    cache_stats: Optional[CacheStats] = None
    requests_per_disk: Optional[np.ndarray] = None
    spinups_per_disk: Optional[np.ndarray] = None
    #: Post-run ``file_id -> disk`` mapping (``-1`` = never allocated).
    #: Reflects every write allocation the run performed, so cross-engine
    #: tests can assert both kernels placed files identically.  ``None``
    #: for aggregate results (e.g. reorganizing runs spanning re-packs).
    final_mapping: Optional[np.ndarray] = None
    #: Free-form per-run extras: scalar annotations (``alloc_disks``) and
    #: structured traces (the control subsystem's per-interval ``"dpm"``
    #: record — thresholds, percentile estimates, power per interval).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Streaming response summary; present whenever :attr:`response_times`
    #: is ``None`` (and may accompany the full array too).
    response_stats: Optional[ResponseStats] = None

    # -- power ---------------------------------------------------------------

    @property
    def mean_power(self) -> float:
        """Average array draw over the run (W).

        ``nan`` for a non-positive duration — the same guard
        :attr:`normalized_power_cost` applies, so a degenerate (zero *or*
        negative) duration cannot return a sign-flipped wattage.
        """
        return self.energy / self.duration if self.duration > 0 else math.nan

    @property
    def normalized_power_cost(self) -> float:
        """Figure 5 normalization: energy / always-spinning energy."""
        if self.always_on_energy <= 0:
            return math.nan
        return self.energy / self.always_on_energy

    @property
    def power_saving_normalized(self) -> float:
        """``1 - normalized_power_cost`` (Figure 5's y-axis)."""
        return 1.0 - self.normalized_power_cost

    def power_saving_vs(self, other: "SimulationResult") -> float:
        """Figure 2's ratio: fraction of ``other``'s energy saved by self."""
        if other.energy <= 0:
            return math.nan
        return 1.0 - self.energy / other.energy

    # -- response time ---------------------------------------------------------

    @property
    def mean_response(self) -> float:
        """Mean response time of completed requests (s).

        Zero-completion runs warn and return ``nan`` (both representations);
        streaming runs answer from :attr:`response_stats` (exact — the
        accumulator's serial sum matches the monolithic mean bit-for-bit).
        """
        if self.response_times is not None:
            if self.response_times.size:
                return float(self.response_times.mean())
            return _nan_no_completions()
        if self.response_stats is not None and self.response_stats.count:
            return self.response_stats.mean
        return _nan_no_completions()

    @property
    def median_response(self) -> float:
        """Median response time (P² estimate in streaming mode)."""
        if self.response_times is not None:
            if self.response_times.size:
                return float(np.median(self.response_times))
            return _nan_no_completions()
        # Streaming mode: route through response_percentile so the
        # percentiles_lost guard covers the median too.
        return self.response_percentile(50.0)

    def response_percentile(self, q: float) -> float:
        """q-th percentile (0-100) of response time.

        In streaming mode only q in {50, 95, 99} are tracked (as P²
        estimates); other q warn and return ``nan``.
        """
        if self.response_times is not None:
            if not self.response_times.size:
                return _nan_no_completions()
            return float(np.percentile(self.response_times, q))
        if self.response_stats is None or not self.response_stats.count:
            return _nan_no_completions()
        if self.response_stats.percentiles_lost:
            # The merge already warned once; reading a percentile off the
            # merged result is the moment a NaN would silently reach a
            # table/plot, so say it again here (reprolint R006's runtime
            # counterpart).
            warnings.warn(
                "this result's ResponseStats were merged across parts and "
                "the P² percentile estimators could not be combined "
                "(percentiles_lost=True): percentiles are NaN. Read "
                "per-part percentiles before merging, or re-run with "
                "metrics_mode='full'.",
                RuntimeWarning,
                stacklevel=3,
            )
            return math.nan
        value = self.response_stats.percentile(q)
        if value is None:
            warnings.warn(
                f"streaming metrics track only p50/p95/p99; "
                f"percentile {q:g} is unavailable (returning NaN)",
                RuntimeWarning,
                stacklevel=3,
            )
            return math.nan
        return value

    @property
    def p95_response(self) -> float:
        """95th-percentile response time (the SLO-frontier headline)."""
        return self.response_percentile(95.0)

    @property
    def p99_response(self) -> float:
        """99th-percentile response time."""
        return self.response_percentile(99.0)

    @property
    def max_response(self) -> float:
        """Largest completed response time (exact in both modes)."""
        if self.response_times is not None:
            if self.response_times.size:
                return float(self.response_times.max())
            return _nan_no_completions()
        if self.response_stats is not None and self.response_stats.count:
            return self.response_stats.max
        return _nan_no_completions()

    def response_ratio_vs(self, other: "SimulationResult") -> float:
        """Figure 3's ratio: self mean response / other mean response."""
        denom = other.mean_response
        if not denom or denom != denom:
            return math.nan
        return self.mean_response / denom

    # -- sanity/diagnostics -----------------------------------------------------

    @property
    def completion_ratio(self) -> float:
        """Completed / arrived (requests still queued at cutoff lower this)."""
        return self.completions / self.arrivals if self.arrivals else math.nan

    def state_fraction(self, state: DiskState) -> float:
        """Fraction of total disk-time spent in ``state``."""
        total = self.duration * self.num_disks
        return self.state_durations.get(state, 0.0) / total if total else math.nan

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        if not self.completions:
            resp_line = "  response    (no completed requests)"
        elif (
            self.response_times is None
            and self.response_stats is not None
            and self.response_stats.percentiles_lost
        ):
            # Merged streaming stats: the P² estimators were dropped at
            # merge time (which already warned).  mean/max are still
            # exact — report those and name the loss, rather than
            # printing "median nan s, p95 nan s" and re-firing the
            # percentiles_lost warning once per percentile read.
            stats = self.response_stats
            resp_line = (
                f"  response    mean {stats.mean:.2f} s, "
                f"max {stats.max:.2f} s (percentiles lost in merge)"
            )
        else:
            resp_line = (
                f"  response    mean {self.mean_response:.2f} s, "
                f"median {self.median_response:.2f} s, "
                f"p95 {self.response_percentile(95):.2f} s"
            )
        lines = [
            f"{self.algorithm}: {self.num_disks} disks, {self.duration:.0f} s",
            f"  energy      {self.energy / 3.6e6:.3f} kWh "
            f"(mean power {self.mean_power:.1f} W, "
            f"normalized cost {self.normalized_power_cost:.3f})",
            resp_line,
            f"  requests    {self.completions}/{self.arrivals} completed, "
            f"{self.spinups} spin-ups, {self.spindowns} spin-downs",
        ]
        if self.cache_stats is not None and self.cache_stats.lookups:
            lines.append(
                f"  cache       hit ratio {self.cache_stats.hit_ratio:.3f} "
                f"({self.cache_stats.hits}/{self.cache_stats.lookups})"
            )
        return "\n".join(lines)
