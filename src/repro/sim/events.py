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
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
]


class _Pending:
    """Sentinel for the value of an untriggered event."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _Pending()

#: Scheduling priorities; URGENT events at a timestamp run before NORMAL ones.
URGENT = 0
NORMAL = 1


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called.

    The interrupted process may catch the exception and continue; the event
    it was waiting on is detached and will no longer resume it.
    """

    @property
    def cause(self) -> Any:
        """The ``cause`` argument passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


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

    __slots__ = ("_generator", "_target")

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
        self._target: Optional[Event] = init

    @property
    def is_alive(self) -> bool:
        """``True`` while the wrapped generator has not terminated."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (or ``None``)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process is detached from the event it was waiting on; that event
        may still fire later but will no longer resume this process.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True  # delivery below handles it
        event.callbacks.append(self._deliver_interrupt)
        self.env._schedule(event, priority=URGENT)

    # -- internal machinery -------------------------------------------------

    def _deliver_interrupt(self, event: Event) -> None:
        if self.triggered:  # terminated before the interrupt was delivered
            return
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        env = self.env
        env.active_process = self
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
                break
            except BaseException as exc:  # process died
                self._ok = False
                self._value = exc
                env._schedule(self)
                break

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
                break

            callbacks = next_event.callbacks
            if callbacks is None:
                # Already processed: loop and feed its value straight back in.
                event = next_event
                continue
            callbacks.append(self._resume)
            self._target = next_event
            break
        env.active_process = None


class ConditionValue(dict):
    """Mapping of triggered sub-event -> value produced by a condition.

    Behaves like a dict keyed by the :class:`Event` objects; also exposes
    :meth:`of` for readable access.
    """

    def of(self, event: Event) -> Any:
        """Return the value contributed by ``event`` (KeyError if absent)."""
        return self[event]


class Condition(Event):
    """An event that triggers based on the outcomes of several sub-events.

    Parameters
    ----------
    env:
        Owning environment.
    evaluate:
        ``evaluate(events, triggered_count) -> bool`` deciding success.
    events:
        The sub-events observed.
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(self, env, evaluate: Callable, events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = tuple(events)
        self._evaluate = evaluate
        self._count = 0
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
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect())


def _any_evaluate(events, count: int) -> bool:
    return count >= 1


def _all_evaluate(events, count: int) -> bool:
    return count == len(events)


class AnyOf(Condition):
    """Condition that triggers as soon as any sub-event triggers."""

    __slots__ = ()

    def __init__(self, env, events: Iterable[Event]) -> None:
        super().__init__(env, _any_evaluate, events)


class AllOf(Condition):
    """Condition that triggers once all sub-events have triggered."""

    __slots__ = ()

    def __init__(self, env, events: Iterable[Event]) -> None:
        super().__init__(env, _all_evaluate, events)
