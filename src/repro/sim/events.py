"""Core event types for the simulation kernel.

The semantics follow SimPy closely: an :class:`Event` is a one-shot
occurrence that processes can wait on by ``yield``-ing it.  Once an event is
*triggered* (``succeed``/``fail``) it is scheduled on the environment's queue;
when the environment pops it, the event becomes *processed* and its callbacks
run.  A :class:`Process` wraps a generator and is itself an event that
triggers when the generator terminates, so processes can wait on each other.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Iterable, Optional

from repro.errors import SimulationError

__all__ = ["AnyOf", "ConditionValue", "Event", "Process", "Timeout"]


class _Pending:
    """Sentinel for the value of an untriggered event."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _Pending()

#: Scheduling priorities; URGENT events at a timestamp run before NORMAL ones.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait for.

    Parameters
    ----------
    env:
        The :class:`~repro.sim.environment.Environment` the event lives in.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env) -> None:
        self.env = env
        #: Callables invoked with the event once it is processed.  ``None``
        #: after processing.
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """``True`` once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the event loop has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or failure exception).  Only valid once triggered."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` and schedule it."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        # Inlined ``env._schedule(self)``: same key, same tie order.
        heappush(env._queue, (env._now, NORMAL, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception`` and schedule it.

        If no waiting process handles (defuses) the failure, the exception is
        re-raised out of :meth:`Environment.run`.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, env, delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, which would break heap order
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        # Inlined ``env._schedule(self, delay)``: same key, same tie order.
        heappush(env._queue, (env._now + delay, NORMAL, next(env._eid), self))


class Process(Event):
    """A generator-coroutine process.

    The wrapped generator ``yield``s events; the process resumes when the
    yielded event is processed, receiving the event's value (or having the
    failure exception thrown into it).  The process is itself an event that
    succeeds with the generator's return value when it finishes.
    """

    __slots__ = ("_generator",)

    def __init__(self, env, generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Kick-start on an already-succeeded init event at the current time.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env._schedule(init)

    @property
    def is_alive(self) -> bool:
        """``True`` while the wrapped generator has not terminated."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The process handles the failure (defuses it).
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._schedule(self)
                return
            except BaseException as exc:  # process died
                self._ok = False
                self._value = exc
                env._schedule(self)
                return

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
                try:
                    generator.throw(exc)
                except BaseException:
                    pass  # the process dies regardless of what it does
                self._ok = False
                self._value = exc
                env._schedule(self)
                return

            callbacks = next_event.callbacks
            if callbacks is None:
                # Already processed: loop and feed its value straight back in.
                event = next_event
                continue
            callbacks.append(self._resume)
            return


class ConditionValue(dict):
    """Mapping of triggered sub-event -> value produced by a condition.

    Behaves like a dict keyed by the :class:`Event` objects; also exposes
    :meth:`of` for readable access.
    """

    def of(self, event: Event) -> Any:
        """Return the value contributed by ``event`` (KeyError if absent)."""
        return self[event]


class AnyOf(Event):
    """An event that triggers as soon as any of several sub-events does.

    It succeeds with a :class:`ConditionValue` of the sub-events processed
    by then, or fails with the first failed sub-event's exception.  A
    sub-event failing after the condition settled is defused.  An empty
    ``AnyOf`` succeeds at once.

    Parameters
    ----------
    env:
        Owning environment.
    events:
        The sub-events observed.
    """

    __slots__ = ("_events",)

    def __init__(self, env, events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = tuple(events)
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition spans multiple environments")
        if not self._events:
            self.succeed(ConditionValue())
            return
        for ev in self._events:
            if ev.callbacks is None:
                # Already processed before the condition existed.
                self._observe(ev)
            else:
                # Triggered-but-unprocessed events (e.g. a pending Timeout)
                # still run their callbacks when the loop reaches them.
                ev.callbacks.append(self._observe)

    def _collect(self) -> ConditionValue:
        result = ConditionValue()
        for ev in self._events:
            # Only *processed* events have actually occurred; a Timeout is
            # "triggered" from birth but pending until the loop reaches it.
            if ev.callbacks is None and ev._ok:
                result[ev] = ev._value
        return result

    def _observe(self, event: Event) -> None:
        if self._value is not PENDING:
            if not event._ok:
                event._defused = True  # condition already settled
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())
