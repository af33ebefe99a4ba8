"""The control loop shared by both simulation engines.

:class:`ThresholdController` owns one policy instance plus the streaming
telemetry (P² percentile estimators, per-interval trace records) and is
the single source of threshold decisions for a run:

* the **event engine** drives it through :class:`EventControlLoop`, a
  simulation process that wakes at every control boundary, harvests the
  interval's observations from the live drives/dispatcher and applies the
  policy's new thresholds to each drive (affecting *future* idleness-timer
  armings only — a gap already underway keeps the threshold it drained
  under);
* the **fast kernel** calls :meth:`ThresholdController.advance` directly
  between its interval-segmented recursion passes
  (:mod:`repro.sim.fastkernel`), with byte-identical telemetry.

Because both engines feed the controller the same observations in the
same order (each disk's idle gaps in its close order), the per-interval
threshold vectors — and hence the simulated trajectories — agree to the
kernels' ~1 ulp float drift; the grid in
``tests/control/test_dpm_equivalence.py`` enforces ~1e-9 agreement for
every registered policy.

The same scalar-per-disk protocol steers **multi-state DPM ladders**
(``StorageConfig(dpm_ladder=...)``): the controller's threshold is the
ladder's first-descent time, and each drive maps it onto per-rung descent
times via :meth:`repro.disk.dpm.DpmLadder.scaled_entries` at the gap's
drain instant — so ``adaptive_timeout``/``slo_feedback`` move the whole
descent schedule without policy-side changes, identically in both engines
(the randomized harness in ``tests/differential/`` covers the
ladder x policy product).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.control.policies import DPMPolicy, make_dpm_policy
from repro.control.telemetry import (
    IdleGaps,
    IntervalRecord,
    IntervalTelemetry,
    P2Quantile,
)
from repro.errors import ConfigError, SimulationError

__all__ = ["EventControlLoop", "ThresholdController", "controller_from"]


class ThresholdController:
    """Telemetry accumulation + policy invocation for one simulation run.

    Parameters
    ----------
    policy:
        Registry name or ready :class:`~repro.control.policies.DPMPolicy`
        instance (a fresh instance per run; stateful policies must not be
        shared between concurrent simulations).
    interval:
        Control-interval length in seconds.
    num_disks:
        Pool size (threshold vectors have this length).
    base_threshold:
        The configured static threshold seeding the policy — a scalar
        for uniform pools or a per-disk vector for heterogeneous fleets.
    spec:
        The :class:`~repro.disk.specs.DiskSpec` (break-even time etc.),
        or one spec per disk for heterogeneous fleets.
    slo_target, slo_percentile:
        The response-time target (seconds at the given percentile) for
        SLO-constrained policies; ``slo_target=None`` when unused.
    """

    def __init__(
        self,
        policy: Union[str, DPMPolicy, None],
        interval: float,
        num_disks: int,
        base_threshold: float,
        spec,
        slo_target: Optional[float] = None,
        slo_percentile: float = 95.0,
    ) -> None:
        interval = float(interval)
        if not interval > 0:
            raise ConfigError("control interval must be positive")
        self.policy = make_dpm_policy(policy)
        self.interval = interval
        self.num_disks = int(num_disks)
        self.policy.reset(
            num_disks=self.num_disks,
            base_threshold=base_threshold,
            spec=spec,
            slo_target=slo_target,
            slo_percentile=slo_percentile,
        )
        self.thresholds = np.array(
            self.policy.initial_thresholds(), dtype=float
        )
        if self.thresholds.shape != (self.num_disks,):
            raise SimulationError(
                "policy initial_thresholds must be one value per disk"
            )
        if not np.all(self.thresholds >= 0):
            raise SimulationError(
                f"{self.policy.name} returned a negative or NaN initial "
                "threshold"
            )
        self.p95 = P2Quantile(95.0)
        self.p99 = P2Quantile(99.0)
        slo_percentile = float(slo_percentile)
        if slo_percentile == 95.0:
            self._slo_estimator = self.p95
        elif slo_percentile == 99.0:
            self._slo_estimator = self.p99
        else:
            self._slo_estimator = P2Quantile(slo_percentile)
        self.records: List[IntervalRecord] = []

    def check_horizon(self, duration: float) -> None:
        """Raise a :class:`~repro.errors.ConfigError` naming
        ``control_interval`` unless it splits a ``duration``-second run
        into a finite number of intervals: a subnormal interval would
        make either engine's boundary loop step forever."""
        intervals = duration / self.interval
        if not math.isfinite(intervals):
            raise ConfigError(
                f"control_interval {self.interval!r} splits a {duration!r} s "
                f"run into {intervals} intervals; it must give a finite count"
            )

    @property
    def slo_estimate(self) -> float:
        """The running SLO-percentile estimate (NaN before warm-up).

        Interval-constant: the underlying P² estimator is only fed at
        control boundaries, so between boundaries this value is frozen —
        which is what lets request schedulers
        (:mod:`repro.system.scheduling`) read it at arrival instants on
        the event engine and in interval batches on the fast kernel and
        still see byte-identical telemetry.
        """
        return self._slo_estimator.value

    # -- the per-boundary protocol ----------------------------------------------

    def _observe(
        self,
        t_start: float,
        t_end: float,
        responses: np.ndarray,
        gaps: IdleGaps,
        queue_depth: np.ndarray,
        power: Optional[np.ndarray],
    ) -> IntervalTelemetry:
        responses = np.asarray(responses, dtype=float)
        self.p95.add_many(responses)
        self.p99.add_many(responses)
        if self._slo_estimator not in (self.p95, self.p99):
            self._slo_estimator.add_many(responses)
        queue_depth = np.asarray(queue_depth, dtype=float)
        index = len(self.records)
        telemetry = IntervalTelemetry(
            index=index,
            t_start=float(t_start),
            t_end=float(t_end),
            responses=responses,
            gaps=gaps,
            queue_depth=queue_depth,
            thresholds=self.thresholds,
            p95_running=self.p95.value,
            p99_running=self.p99.value,
            slo_estimate=self._slo_estimator.value,
        )
        self.records.append(
            IntervalRecord(
                index=index,
                t_start=telemetry.t_start,
                t_end=telemetry.t_end,
                thresholds=self.thresholds.copy(),
                completions=int(responses.size),
                interval_p95=(
                    float(np.percentile(responses, 95.0))
                    if responses.size
                    else math.nan
                ),
                p95_running=telemetry.p95_running,
                p99_running=telemetry.p99_running,
                slo_estimate=telemetry.slo_estimate,
                mean_queue_depth=(
                    float(queue_depth.mean()) if queue_depth.size else 0.0
                ),
                power=None if power is None else np.asarray(power, float),
                gap_count=len(gaps.disks),
            )
        )
        return telemetry

    def advance(
        self,
        t_start: float,
        t_end: float,
        responses: np.ndarray,
        gaps: IdleGaps,
        queue_depth: np.ndarray,
        power: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Record one finished interval and decide the next thresholds."""
        telemetry = self._observe(
            t_start, t_end, responses, gaps, queue_depth, power
        )
        new = np.asarray(self.policy.update(telemetry), dtype=float)
        if new.shape != (self.num_disks,):
            raise SimulationError(
                f"{self.policy.name} returned {new.shape} thresholds for "
                f"{self.num_disks} disks"
            )
        if not np.all(new >= 0):
            raise SimulationError(
                f"{self.policy.name} returned a negative or NaN threshold"
            )
        self.thresholds = new.copy()
        return self.thresholds

    def finalize(
        self,
        t_start: float,
        t_end: float,
        responses: np.ndarray,
        gaps: IdleGaps,
        queue_depth: np.ndarray,
        power: Optional[np.ndarray] = None,
    ) -> None:
        """Record the final (possibly partial) interval without an update.

        The thresholds a boundary at or beyond the horizon would produce
        can never take effect, so the last interval is observed for the
        trace but triggers no policy decision — mirroring the event
        engine, where the measurement cutoff pre-empts a control firing
        at exactly the horizon.
        """
        self._observe(t_start, t_end, responses, gaps, queue_depth, power)

    # -- trace export -----------------------------------------------------------

    def attach_power(self, matrix: np.ndarray) -> None:
        """Fill per-interval per-disk mean power into the records.

        The fast kernel computes the power trace after the run (from its
        logged state episodes); the event engine fills it online instead.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (len(self.records), self.num_disks):
            raise SimulationError(
                f"power matrix {matrix.shape} does not match "
                f"{len(self.records)} intervals x {self.num_disks} disks"
            )
        for record, row in zip(self.records, matrix):
            record.power = row

    def extra(self) -> dict:
        """The per-interval traces for ``SimulationResult.extra['dpm']``."""
        records = self.records
        have_power = records and all(r.power is not None for r in records)
        return {
            "policy": self.policy.name,
            "interval": self.interval,
            "t_start": [r.t_start for r in records],
            "t_end": [r.t_end for r in records],
            "thresholds": [r.thresholds.tolist() for r in records],
            "completions": [r.completions for r in records],
            "interval_p95": [r.interval_p95 for r in records],
            "p95_running": [r.p95_running for r in records],
            "p99_running": [r.p99_running for r in records],
            "slo_estimate": [r.slo_estimate for r in records],
            "mean_queue_depth": [r.mean_queue_depth for r in records],
            "power": (
                [r.power.tolist() for r in records] if have_power else None
            ),
        }


def controller_from(
    policy: Union[str, DPMPolicy, None],
    interval: float,
    num_disks: int,
    base_threshold: float,
    spec,
    slo_target: Optional[float] = None,
    slo_percentile: float = 95.0,
) -> Optional[ThresholdController]:
    """A fresh controller, or ``None`` when the policy is static.

    Static policies (``fixed``) take the uncontrolled code path in both
    engines — no control process, no interval segmentation — so their
    runs are byte-identical to the pre-control simulator.
    """
    policy = make_dpm_policy(policy)
    if policy.static:
        return None
    return ThresholdController(
        policy,
        interval,
        num_disks,
        base_threshold,
        spec,
        slo_target=slo_target,
        slo_percentile=slo_percentile,
    )


class EventControlLoop:
    """The event engine's control-boundary process.

    Wakes at every multiple of the control interval (strictly before the
    horizon — the measurement cutoff pre-empts a firing at exactly the
    horizon, matching the fast kernel's no-update-at-``T`` rule), harvests
    the interval's telemetry from the live drives and dispatcher, and
    applies the policy's new thresholds to each drive.  Threshold writes
    affect future idleness-timer armings only; a drive already idling
    keeps the timer it armed at drain, which is exactly the gap semantics
    the fast kernel replays.

    Construction applies the controller's initial thresholds to the
    drives (before any simulation event has run).
    """

    def __init__(self, env, drives, dispatcher, controller, horizon,
                 observer=None):
        self.env = env
        self.drives = list(drives)
        self.dispatcher = dispatcher
        self.controller = controller
        self.horizon = float(horizon)
        # Optional repro.obs observer: receives each applied threshold
        # vector at its boundary instant (same emission points as the
        # fast kernel's controlled driver).
        self.observer = observer
        self._consumed_responses = 0
        #: Every drive's closed gaps, emptied at each boundary.
        self._gaps: List[Tuple[int, float, float]] = []
        self._last_energy = np.array(
            [d.energy() for d in self.drives], dtype=float
        )
        self._t_start = float(env.now)
        for drive, th in zip(self.drives, controller.thresholds):
            drive.threshold = float(th)
            drive.gap_log = self._gaps

    def _collect(self, t_end: float):
        responses = np.asarray(
            self.dispatcher.response_times[self._consumed_responses:],
            dtype=float,
        )
        self._consumed_responses += int(responses.size)
        gaps = IdleGaps.from_rows(self._gaps)
        self._gaps.clear()
        queue_depth = np.array(
            [d.queue_depth for d in self.drives], dtype=float
        )
        energy = np.array([d.energy() for d in self.drives], dtype=float)
        window = t_end - self._t_start
        power = (energy - self._last_energy) / window
        self._last_energy = energy
        return responses, gaps, queue_depth, power

    def run(self):
        """Generator process: fire at every boundary before the horizon."""
        k = 0
        while True:
            t_next = (k + 1) * self.controller.interval
            if t_next >= self.horizon:
                return
            yield self.env.timeout(t_next - self.env.now)
            thresholds = self.controller.advance(
                self._t_start, t_next, *self._collect(t_next)
            )
            if self.observer is not None:
                self.observer.on_thresholds(t_next, thresholds)
            for drive, th in zip(self.drives, thresholds):
                drive.threshold = float(th)
            self._t_start = t_next
            k += 1

    def finalize(self) -> None:
        """Fold the final partial interval into the trace (post-run)."""
        t_end = float(self.env.now)
        if t_end > self._t_start:
            self.controller.finalize(
                self._t_start, t_end, *self._collect(t_end)
            )
