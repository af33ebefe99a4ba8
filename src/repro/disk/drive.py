"""The simulated disk drive: FIFO service and a DPM ladder descended while idle.

State machine (paper Figure 1, generalized per rung of a
:class:`~repro.disk.dpm.DpmLadder`):

* While requests are queued the drive is ``SEEK`` (positioning) then
  ``ACTIVE`` (transferring) per request, FIFO.
* When the queue drains, the drive parks in rung 0 (``IDLE``).  At each
  rung's (possibly control-scaled) entry time it starts a
  **non-abortable descent** into the next rung, billed at that rung's
  ``down_power`` for ``down_time`` seconds — Figure 1's ``SPINDOWN`` (10 s)
  -> ``STANDBY``, generalized per rung.
* A request arriving while parked in rung ``i`` (or mid-descent into it;
  the descent finishes first) pays the rung's wake, billed at
  ``wake_power`` for exactly the configured ``wake_time`` — Figure 1's
  ``SPINUP`` (15 s) before service resumes.

A drive built without a ladder runs its spec's ``two_state`` ladder (the
paper's drive) and records the classic :class:`~repro.disk.power.DiskState`
members, named through :data:`~repro.disk.dpm.CLASSIC_STATES`.  A drive
built with a ladder records the ladder's labels: rung names while parked,
``down:<name>`` during descents, ``wake:<name>`` during wakes, plus
``seek``/``active`` while serving.  The fast kernel's
:class:`~repro.sim.fastkernel._DiskBank` replays the same semantics under
the same labels.

Energy is integrated from the state timeline against per-label power
figures.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Deque, Dict, Hashable, List, Mapping, Optional, Tuple, Union

from repro.disk.dpm import (
    CLASSIC_STATES,
    DpmLadder,
    MultiStateDpmPolicy,
    make_dpm_ladder,
)
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


@lru_cache(maxsize=64)
def _label_tables(spec: DiskSpec, ladder: Optional[DpmLadder]) -> tuple:
    """``(ladder, power by label, park, descent and wake labels per rung,
    (seek, active) labels, spun-down label)`` of a drive, shared by every
    drive with the same ``spec`` and ``ladder`` (``None``: the spec's
    ``two_state`` ladder under the classic labels)."""
    classic = ladder is None
    if classic:
        ladder = make_dpm_ladder("two_state", spec)
    rungs = ladder.rungs
    deep = rungs[1:]
    names = (
        [r.name for r in rungs]
        + [f"down:{r.name}" for r in deep]
        + [f"wake:{r.name}" for r in deep]
        + ["seek", "active"]
    )
    labels = {n: CLASSIC_STATES[n] if classic else n for n in names}
    table = ladder.power_table(spec)
    power: Mapping[Hashable, float] = MappingProxyType(
        {lab: table[n] for n, lab in labels.items()}
    )
    park = tuple(labels[r.name] for r in rungs)
    down = (None,) + tuple(labels[f"down:{r.name}"] for r in deep)
    woken = (None,) + tuple(labels[f"wake:{r.name}"] for r in deep)
    serving = (labels["seek"], labels["active"])
    # Only a disk parked in the deepest rung counts as spun down.
    asleep = park[-1] if deep else None
    return ladder, power, park, down, woken, serving, asleep


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
        First-descent threshold (seconds of idleness before spinning
        down).  ``None`` uses the ladder's native first entry — the
        spec's break-even threshold without a ladder (the paper's default
        policy); ``math.inf`` disables descent entirely; ``0`` descends
        immediately.  Deeper entries scale proportionally (see
        :meth:`~repro.disk.dpm.DpmLadder.scaled_entries`).
    record_history:
        Keep the full state-transition history (for tests/plots).
    ladder:
        ``None`` (the spec's ``two_state`` ladder under the classic
        :class:`~repro.disk.power.DiskState` labels), a
        :class:`~repro.disk.dpm.DpmLadder`, or a
        :class:`~repro.disk.dpm.MultiStateDpmPolicy` (bridged via
        :meth:`DpmLadder.from_policy`).
    """

    def __init__(
        self,
        env: Environment,
        spec: DiskSpec,
        disk_id: int = 0,
        idleness_threshold: Optional[float] = None,
        record_history: bool = False,
        ladder: Union[None, DpmLadder, MultiStateDpmPolicy] = None,
    ) -> None:
        if isinstance(ladder, MultiStateDpmPolicy):
            ladder = DpmLadder.from_policy(ladder, spec)
        classic = ladder is None
        (
            ladder, self._power, self._park, self._down, self._woken,
            self._serving, self._asleep,
        ) = _label_tables(spec, ladder)
        if idleness_threshold is None:
            idleness_threshold = ladder.base_threshold
        if not idleness_threshold >= 0:  # also rejects NaN
            raise SimulationError(
                f"idleness threshold must be >= 0, got {idleness_threshold!r}"
            )
        self.env = env
        self.spec = spec
        self.ladder = ladder
        self.disk_id = disk_id
        #: First-descent threshold; the control loop overwrites this and
        #: the value is consumed at the next queue drain (the idleness
        #: timer already armed keeps the old one).
        self.threshold = float(idleness_threshold)
        self._classic = classic
        self.timeline = StateTimeline(env, self._park[0], record_history)
        self.stats = DriveStats()
        self._pending: Deque[DiskRequest] = deque()
        self._wake: Optional[Event] = None
        #: The run-wide gap log of the control loop
        #: (:mod:`repro.control`), shared by every drive: the arrival that
        #: ends an idle gap appends ``(disk_id, gap_seconds,
        #: threshold_at_drain)``.  ``None`` (uncontrolled runs) logs
        #: nothing.  The fast kernel logs identical entries.
        self.gap_log: Optional[List[Tuple[int, float, float]]] = None
        # The drive counts as drained from construction: its idleness
        # timer is armed at t=0, so the first arrival closes a gap that
        # began at creation time — like the fast kernel's avail=0 start.
        self._drain_time: Optional[float] = env.now
        self._drain_threshold: float = self.threshold
        self.process = env.process(self._run())

    # -- public API ------------------------------------------------------------

    @property
    def state(self) -> Hashable:
        """Current timeline label: a :class:`~repro.disk.power.DiskState`
        without a ladder, the ladder's label string with one."""
        return self.timeline.state

    @property
    def spinning(self) -> bool:
        """Whether the platters are (or are being brought) up to speed.

        Only a disk *parked in the deepest rung* counts as spun down:
        descents (like Figure 1's ``SPINDOWN``), intermediate reduced-RPM
        rungs and wakes all spin.
        """
        return self.timeline.state != self._asleep

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
            if self.gap_log is not None:
                self.gap_log.append((
                    self.disk_id, env.now - self._drain_time,
                    self._drain_threshold,
                ))
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

    def state_durations(self) -> Dict[Hashable, float]:
        """Seconds spent per timeline label so far."""
        return self.timeline.durations()

    def energy(self) -> float:
        """Energy consumed so far (J): every label billed at its power."""
        power = self._power
        durations = self.timeline.durations()
        return sum(power[state] * t for state, t in durations.items())

    def mean_power(self) -> float:
        """Average draw so far (W); ``nan`` before any time elapses."""
        total = self.timeline.total_time()
        return self.energy() / total if total else math.nan

    # -- the drive process -------------------------------------------------------

    def _run(self):
        env = self.env
        spec = self.spec
        ladder = self.ladder
        rungs = ladder.rungs
        deepest = len(rungs) - 1
        # Per-drive constants and bound methods, hoisted out of the loop.
        overhead = spec.access_overhead
        rate = spec.transfer_rate
        pending = self._pending
        set_state = self.timeline.set
        stats = self.stats
        record = stats.record_completion
        park, down, woken = self._park, self._down, self._woken
        seek, active = self._serving
        parked = park[0]
        classic = self._classic
        inf = math.inf
        scaled = None  # the threshold ``entries`` were scaled for
        while True:
            if not pending:
                # The queue just drained (the drive is parked in rung 0):
                # the gap starting now is governed by the *current*
                # threshold (the timer armed below), even if a control
                # loop changes ``self.threshold`` mid-gap.
                drain = env.now
                threshold = self.threshold
                self._drain_time = drain
                self._drain_threshold = threshold
                if threshold != scaled:
                    entries = ladder.scaled_entries(threshold)
                    first = max(0.0, entries[1]) if deepest else inf
                    scaled = threshold
                self._wake = wake = Event(env)
                if first == inf:
                    yield wake
                    continue
                yield AnyOf(env, (wake, Timeout(env, first)))
                if pending:
                    continue
                i = 1
                while True:
                    # Non-abortable descent into rung i: an arrival during
                    # it waits for the transition to finish.
                    set_state(down[i])
                    stats.spindowns += 1
                    yield Timeout(env, rungs[i].down_time)
                    set_state(park[i])
                    if pending:
                        break
                    self._wake = wake = Event(env)
                    if i == deepest:
                        # Deepest rung: only an arrival ends the gap.
                        yield wake
                        break
                    # Parked in rung i: wait for the next descent or an
                    # arrival, whichever comes first.
                    remaining = entries[i + 1] - (env.now - drain)
                    yield AnyOf(env, (wake, Timeout(env, max(0.0, remaining))))
                    if pending:
                        break
                    i += 1
                wake_time = rungs[i].wake_time
                set_state(woken[i])
                stats.spinups += 1
                if wake_time > 0 or classic:
                    yield Timeout(env, wake_time)
                if classic:
                    # Figure 1's spin-up ends in IDLE: a zero-length dwell
                    # before SEEK that classic histories keep.
                    set_state(parked)
                continue

            request = pending.popleft()
            set_state(seek)
            yield Timeout(env, overhead)
            set_state(active)
            yield Timeout(env, request.size / rate)
            set_state(parked)
            response = env.now - request.arrival_time
            record(request.size, request.kind)
            request.done.succeed(response)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DiskDrive {self.disk_id} state={self.state} "
            f"queue={self.queue_depth}>"
        )
