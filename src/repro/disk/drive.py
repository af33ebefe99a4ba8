"""The simulated disk drive: FIFO service, idleness timer, spin transitions.

State machine (paper Figure 1):

* While requests are queued the drive is ``SEEK`` (positioning) then
  ``ACTIVE`` (transferring) per request, FIFO.
* When the queue drains, the drive sits ``IDLE``.  If no request arrives
  within the *idleness threshold*, it transitions ``SPINDOWN`` (10 s) ->
  ``STANDBY``.
* A request arriving in ``STANDBY`` (or during ``SPINDOWN`` — the spin-down
  is not abortable) triggers ``SPINUP`` (15 s) before service resumes.

Energy is integrated from the state timeline against the spec's per-state
power figures.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.disk.power import DiskState, PowerModel
from repro.disk.specs import DiskSpec
from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import PENDING, AnyOf, Event, Timeout
from repro.sim.monitor import StateTimeline

__all__ = ["DiskDrive", "DiskRequest", "DriveStats"]

READ = "read"
WRITE = "write"


class DiskRequest:
    """One I/O request travelling through a drive.

    Attributes
    ----------
    file_id:
        Identifier of the requested file (opaque to the drive).
    size:
        Bytes to transfer.
    arrival_time:
        Simulation time the request was submitted to the drive.
    done:
        Event succeeding with the response time (completion - arrival);
        the one place a drive reports responses.
    kind:
        ``"read"`` or ``"write"`` (identical service; tracked for stats).
    """

    __slots__ = ("file_id", "size", "arrival_time", "done", "kind")

    def __init__(
        self,
        env: Environment,
        file_id: int,
        size: float,
        kind: str = READ,
    ) -> None:
        self.file_id = file_id
        self.size = float(size)
        self.arrival_time = env.now
        self.done = Event(env)
        self.kind = kind


@dataclass
class DriveStats:
    """Counters and aggregates for one drive."""

    arrivals: int = 0
    completions: int = 0
    reads: int = 0
    writes: int = 0
    spinups: int = 0
    spindowns: int = 0
    bytes_transferred: float = 0.0

    def record_completion(self, size: float, kind: str) -> None:
        self.completions += 1
        self.bytes_transferred += size
        if kind == WRITE:
            self.writes += 1
        else:
            self.reads += 1


class DiskDrive:
    """A single simulated drive bound to an environment.

    Parameters
    ----------
    env:
        Simulation environment.
    spec:
        Drive characteristics (timing + power).
    disk_id:
        Identifier used in results.
    idleness_threshold:
        Seconds of idleness before spinning down.  ``None`` uses the spec's
        break-even threshold (the paper's default policy); ``math.inf``
        disables spin-down entirely; ``0`` spins down immediately.
    initial_state:
        ``DiskState.IDLE`` (spinning, default) or ``DiskState.STANDBY``.
    record_history:
        Keep the full state-transition history (for tests/plots).
    """

    def __init__(
        self,
        env: Environment,
        spec: DiskSpec,
        disk_id: int = 0,
        idleness_threshold: Optional[float] = None,
        initial_state: DiskState = DiskState.IDLE,
        record_history: bool = False,
    ) -> None:
        if initial_state not in (DiskState.IDLE, DiskState.STANDBY):
            raise SimulationError(
                "drives must start IDLE (spinning) or STANDBY (spun down)"
            )
        if idleness_threshold is None:
            idleness_threshold = spec.breakeven_threshold()
        if not idleness_threshold >= 0:  # also rejects NaN
            raise SimulationError(
                f"idleness threshold must be >= 0, got {idleness_threshold!r}"
            )
        self.env = env
        self.spec = spec
        self.disk_id = disk_id
        self.threshold = float(idleness_threshold)
        self.power_model = PowerModel(spec)
        self.timeline = StateTimeline(env, initial_state, record_history)
        self.stats = DriveStats()
        self._pending: Deque[DiskRequest] = deque()
        self._wake: Optional[Event] = None
        #: Closed idle gaps in close order: ``(gap_seconds,
        #: threshold_at_drain)`` appended at the arrival that ends the gap.
        #: The control loop (:mod:`repro.control`) consumes this per
        #: interval; whether the gap spun the disk down is derivable
        #: (``gap > threshold``).  The fast kernel logs identical entries.
        #: Populated only while :attr:`log_gaps` is set — uncontrolled
        #: runs must not accumulate telemetry nothing reads.
        self.gap_log: List[Tuple[float, float]] = []
        #: Enable gap telemetry (set by the control loop at attach time).
        self.log_gaps: bool = False
        # The drive counts as drained from construction: its idleness
        # timer is armed at t=0, so the first arrival closes a gap that
        # began at creation time — like the fast kernel's avail=0 start.
        self._drain_time: Optional[float] = env.now
        self._drain_threshold: float = self.threshold
        self.process = env.process(self._run(initial_state))

    # -- public API ------------------------------------------------------------

    @property
    def state(self) -> DiskState:
        """Current power state."""
        return self.timeline.state

    @property
    def spinning(self) -> bool:
        """Whether the platters are (or are being brought) up to speed.

        Duck-typed with :class:`~repro.disk.multistate.MultiStateDiskDrive`
        so the dispatcher's placement context reads either drive kind.
        """
        return self.state.spinning

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting or in service."""
        return len(self._pending)

    def submit(self, file_id: int, size: float, kind: str = READ) -> DiskRequest:
        """Enqueue a request; returns it (wait on ``request.done``)."""
        if not size >= 0:  # also rejects NaN, which would never complete
            raise SimulationError(f"request size must be >= 0, got {size!r}")
        env = self.env
        if self._drain_time is not None:
            # First arrival since the queue drained: close the idle gap.
            if self.log_gaps:
                self.gap_log.append(
                    (env.now - self._drain_time, self._drain_threshold)
                )
            self._drain_time = None
        request = DiskRequest(env, file_id, size, kind)
        pending = self._pending
        pending.append(request)
        self.stats.arrivals += 1
        wake = self._wake
        if wake is not None and wake._value is PENDING:
            wake.succeed()
        self._wake = None
        return request

    def state_durations(self) -> Dict[DiskState, float]:
        """Seconds spent per power state so far."""
        return self.timeline.durations()

    def energy(self) -> float:
        """Energy consumed so far (J)."""
        return self.power_model.energy(self.timeline.durations())

    def mean_power(self) -> float:
        """Average draw so far (W); ``nan`` before any time elapses."""
        total = self.timeline.total_time()
        return self.energy() / total if total else math.nan

    # -- the drive process -------------------------------------------------------

    def _run(self, initial_state: DiskState):
        env = self.env
        spec = self.spec
        # Per-drive constants and bound methods, hoisted out of the loop.
        overhead = spec.access_overhead
        rate = spec.transfer_rate
        pending = self._pending
        set_state = self.timeline.set
        record = self.stats.record_completion
        IDLE, SEEK, ACTIVE = DiskState.IDLE, DiskState.SEEK, DiskState.ACTIVE

        if initial_state is DiskState.STANDBY:
            yield from self._sleep_then_spin_up()

        while True:
            if not pending:
                set_state(IDLE)
                # The queue just drained: the gap starting now is governed
                # by the *current* threshold (the timer armed below), even
                # if a control loop changes ``self.threshold`` mid-gap.
                threshold = self.threshold
                self._drain_time = env.now
                self._drain_threshold = threshold
                wake = self._wake = Event(env)
                if math.isinf(threshold):
                    yield wake
                else:
                    yield AnyOf(env, (wake, Timeout(env, threshold)))
                    if not pending:
                        # The idleness threshold expired: power down.
                        yield from self._spin_down()
                        yield from self._sleep_then_spin_up()
                continue

            request = pending.popleft()
            set_state(SEEK)
            yield Timeout(env, overhead)
            set_state(ACTIVE)
            yield Timeout(env, request.size / rate)
            set_state(IDLE)
            response = env.now - request.arrival_time
            record(request.size, request.kind)
            request.done.succeed(response)

    def _spin_down(self):
        self.timeline.set(DiskState.SPINDOWN)
        self.stats.spindowns += 1
        # Not abortable: requests arriving now wait for the full transition.
        yield Timeout(self.env, self.spec.spindown_time)
        self.timeline.set(DiskState.STANDBY)

    def _sleep_then_spin_up(self):
        if not self._pending:
            self.timeline.set(DiskState.STANDBY)
            self._wake = Event(self.env)
            yield self._wake
        self.timeline.set(DiskState.SPINUP)
        self.stats.spinups += 1
        yield Timeout(self.env, self.spec.spinup_time)
        self.timeline.set(DiskState.IDLE)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DiskDrive {self.disk_id} state={self.state.value} "
            f"queue={self.queue_depth}>"
        )
