"""The simulation environment: clock, event queue and run loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Generator, Union

from repro.errors import SimulationError
from repro.sim.events import NORMAL, URGENT, Event, Process, Timeout

__all__ = ["Environment", "NORMAL", "URGENT"]


class _StopSimulation(Exception):
    """Internal control-flow exception ending :meth:`Environment.run`."""

    def __init__(self, event: Event) -> None:
        super().__init__(event)
        self.event = event

    @classmethod
    def callback(cls, event: Event) -> None:
        if event._ok:
            raise cls(event)
        raise event._value


class Environment:
    """Discrete-event execution environment.

    Keeps the simulation clock, starting at 0, and a priority queue of
    triggered events.  Events scheduled at the same timestamp are processed
    in FIFO order of scheduling (stable, deterministic), with URGENT events
    first.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list = []
        self._eid = count()

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` after now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    # -- scheduling & running ---------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until no events remain;
            a number
                run up to (and including urgent events at) that time, then
                stop with ``now == until``;
            an :class:`Event`
                run until that event is processed and return its value.

        Returns
        -------
        The value of the ``until`` event if one was given, else ``None``.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if not at >= self._now:  # also rejects NaN
                raise ValueError(
                    f"until={at} must be a time at or after now={self._now}"
                )
            stop = Event(self)
            stop._ok = True
            stop._value = None
            self._schedule(stop, delay=at - self._now, priority=URGENT)
            until = stop

        if until is not None:
            if until.callbacks is None:  # already processed
                if until._ok:
                    return until._value
                raise until._value
            until.callbacks.append(_StopSimulation.callback)

        # One Python frame per run, not one per event.
        queue = self._queue
        pop = heappop
        while True:
            try:
                while queue:
                    when, _, _, event = pop(queue)
                    self._now = when
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        # Nobody handled the failure: crash loudly.
                        raise event._value
            except _StopSimulation as stop:
                # Stop events from a *previous* run() that aborted (e.g. a
                # crashed process) may still be queued; only our own event
                # ends this run — stale ones are ignored.
                if stop.event is until:
                    return stop.event._value
                continue
            if until is not None and not until.triggered:
                raise SimulationError(
                    "no scheduled events left but the 'until' event was "
                    "never triggered"
                )
            return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Environment now={self._now} pending={len(self._queue)}>"
