"""Streaming control-loop telemetry: percentile estimation and windows.

The online DPM policies (:mod:`repro.control.policies`) make one decision
per *control interval* from what the system observed during it.  This
module provides the observation substrate shared by both simulation
engines:

* :class:`P2Quantile` — the Jain & Chlamtac P² streaming percentile
  estimator (five markers, O(1) memory), used for the running p95/p99
  response-time estimates the ``slo_feedback`` controller steers by;
* :class:`IntervalTelemetry` — everything a policy may consult at one
  control boundary: the interval's completed response times (completion
  order), the idle gaps closed during the interval (:class:`IdleGaps`
  columns), per-disk queue depth at the boundary, and the running
  percentile estimates;
* :class:`IntervalRecord` — the per-interval trace row (thresholds in
  effect, percentile estimates, per-disk mean power when available)
  surfaced through ``SimulationResult.extra["dpm"]``.  Its per-disk
  power is diffed from live drive energies on the event engine; the
  fast kernel bins its logged state spans into the interval windows in
  the compiled core instead (:func:`repro.native.bin_spans`).

Both engines feed these objects the **same observations in the same
order** (responses in completion order, each disk's gaps in its close
order), so a policy's threshold decisions — and hence the simulated
trajectories — agree across engines to the kernels' ~1 ulp float drift.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro import native
from repro.errors import ConfigError, SimulationError

__all__ = ["IdleGaps", "IntervalRecord", "IntervalTelemetry", "P2Quantile"]

#: Dense float vector (the dtype every telemetry array is coerced to).
FloatArray = npt.NDArray[np.float64]


class P2Quantile:
    """Streaming percentile estimate without storing observations (P²).

    The classic five-marker algorithm (Jain & Chlamtac, CACM 1985): marker
    heights track the running min, max, the target percentile and the two
    flanking percentiles; marker positions are nudged toward their desired
    positions with a piecewise-parabolic height update.  Until five
    observations have arrived the estimate is the exact linear-interpolated
    empirical percentile (same convention as ``np.percentile``).

    The recursion is deterministic in the observation order, which is why
    both simulation engines must feed completions in the same order.  It
    runs only in the compiled library, so construction raises its
    :class:`~repro.errors.ConfigError` where that could not be built
    (before an estimator could count observations it cannot fold).

    Parameters
    ----------
    percentile:
        Target percentile in (0, 100), e.g. ``95.0``.
    """

    __slots__ = ("percentile", "count", "_p", "_dn", "_markers", "_initial")

    def __init__(self, percentile: float) -> None:
        native.library()
        percentile = float(percentile)
        if not 0.0 < percentile < 100.0:
            raise ConfigError(
                f"percentile must be in (0, 100), got {percentile}"
            )
        self.percentile = percentile
        self.count = 0
        p = percentile / 100.0
        self._p = p
        #: Desired-position increments per observation, one per marker.
        self._dn: FloatArray = np.array([0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0])
        #: Marker heights ``[0:5]``, positions ``[5:10]`` and desired
        #: positions ``[10:15]`` in one array (``None`` until five
        #: observations).  Positions are integer-valued floats (exact far
        #: below 2**53), so the recursion never mixes int and float
        #: arithmetic.
        self._markers: Optional[FloatArray] = None
        self._initial: List[float] = []

    def add(self, x: float) -> None:
        """Fold one observation into the estimate (:meth:`add_many` of one)."""
        self.add_many((x,))

    def add_many(self, xs: Sequence[float]) -> None:
        """Fold a batch of observations, in order.

        The marker recursion runs in the compiled library
        (:func:`repro.native.p2_fold`, ~0.02 us per observation with the
        finite check), which classifies each observation from the middle
        marker out.  The result does not depend on how a stream is split
        into batches: it is bit-equal to the textbook
        one-observation-at-a-time recursion.

        Raises :class:`~repro.errors.SimulationError` if any observation
        is NaN or infinite (one would silently corrupt the markers).
        """
        arr = np.asarray(xs, dtype=float).ravel()
        if not np.isfinite(arr).all():
            raise SimulationError(
                f"P² observations must be finite; got "
                f"{arr[~np.isfinite(arr)][0]} among {arr.size}"
            )
        self.count += int(arr.size)
        markers = self._markers
        if markers is None:
            # Initial phase: exact empirical percentile until 5 observations.
            initial = self._initial
            start = 5 - len(initial)
            for x in arr[:start].tolist():
                insort(initial, x)
            if len(initial) < 5:
                return
            p = self._p
            markers = self._markers = np.array(
                [*initial, 0.0, 1.0, 2.0, 3.0, 4.0,
                 0.0, 2.0 * p, 4.0 * p, 2.0 + 2.0 * p, 4.0]
            )
            arr = arr[start:]
        if arr.size:
            native.p2_fold(markers, self._dn, arr)

    @property
    def value(self) -> float:
        """Current estimate (``nan`` before any observation)."""
        if self.count == 0:
            return math.nan
        if self._markers is None:
            return float(np.percentile(self._initial, self.percentile))
        return float(self._markers[2])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<P2Quantile p{self.percentile:g} n={self.count} "
            f"value={self.value:.4g}>"
        )


class IdleGaps(NamedTuple):
    """The idle gaps closed during one control interval, as columns: gap
    ``j`` ended on disk ``disks[j]`` after ``gaps[j]`` idle seconds, under
    the threshold ``thresholds[j]`` in effect when it began.  Whether the
    disk spun down is derivable (``gap > threshold``, the strict
    comparison both engines use), so it is not stored separately.

    Each disk's gaps appear in its close order; how the disks interleave
    is the engine's own (arrival order on the fast kernel, event order on
    the event engine), so a policy may rely on per-disk order only.
    """

    disks: npt.NDArray[np.int64]
    gaps: FloatArray
    thresholds: FloatArray

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple[int, float, float]]) -> IdleGaps:
        """Columns from ``(disk, gap, threshold)`` rows in close order."""
        cols: FloatArray = np.array(rows, dtype=float).reshape(-1, 3)
        return cls(cols[:, 0].astype(np.int64), cols[:, 1], cols[:, 2])


@dataclass
class IntervalTelemetry:
    """Everything a DPM policy may consult at one control boundary.

    Attributes
    ----------
    index:
        Zero-based control-interval index.
    t_start, t_end:
        The interval's bounds in simulation time (``t_end`` is the boundary
        at which the policy decides the *next* interval's thresholds).
    responses:
        Response times of requests completed during the interval, in
        completion order (cache hits included, horizon-censored requests
        excluded) — identical across engines.
    gaps:
        The idle gaps *closed* during the interval (the arrival that ended
        the gap fell inside it), as :class:`IdleGaps` columns.
    queue_depth:
        Per-disk requests dispatched but not yet in service at ``t_end``.
    thresholds:
        The per-disk idleness thresholds that were in effect *during* the
        interval.
    p95_running, p99_running:
        Streaming P² estimates over every response observed so far.
    slo_estimate:
        The running estimate at the configured SLO percentile (``nan``
        until the first completion).
    """

    index: int
    t_start: float
    t_end: float
    responses: FloatArray
    gaps: IdleGaps
    queue_depth: FloatArray
    thresholds: FloatArray
    p95_running: float
    p99_running: float
    slo_estimate: float


@dataclass
class IntervalRecord:
    """One row of the per-run control trace (kept by the controller)."""

    index: int
    t_start: float
    t_end: float
    #: Thresholds in effect during the interval (per disk).
    thresholds: FloatArray
    completions: int
    #: Exact percentile of this interval's responses alone (``nan`` when
    #: the interval completed nothing).
    interval_p95: float
    p95_running: float
    p99_running: float
    slo_estimate: float
    mean_queue_depth: float
    #: Per-disk mean draw over the interval (W); filled by the event
    #: engine online and by the fast kernel's post-run span binning
    #: (:func:`repro.native.bin_spans` over its logged state spans).
    power: Optional[FloatArray] = None
    gap_count: int = 0
