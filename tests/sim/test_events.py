"""Unit tests for the event types and process semantics."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import AnyOf, Environment


class TestEvent:
    def test_new_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_sets_value_after_processing(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered
        assert not ev.processed
        env.run()
        assert ev.processed
        assert ev.ok
        assert ev.value == 42

    def test_value_before_trigger_raises(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_double_succeed_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, env):
        ev = env.event()
        ev.fail(ValueError("x"))
        ev._defused = True
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_unhandled_failure_raises_from_run(self, env):
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_callbacks_receive_event(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e))
        ev.succeed("v")
        env.run()
        assert seen == [ev]


class TestTimeout:
    def test_fires_at_delay(self, env):
        t = env.timeout(5.0, value="done")
        result = env.run(until=t)
        assert result == "done"
        assert env.now == 5.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_nan_delay_rejected(self, env):
        # A NaN key would leave the heap order undefined.
        with pytest.raises(ValueError):
            env.timeout(math.nan)
        env.run()
        assert env.now == 0.0  # nothing was queued

    def test_zero_delay_fires_immediately(self, env):
        t = env.timeout(0.0)
        env.run(until=t)
        assert env.now == 0.0

    def test_pending_timeout_is_triggered_but_not_processed(self, env):
        # Regression guard: a Timeout is 'triggered' from construction but
        # must not count as having occurred (the Condition bug).
        t = env.timeout(10.0)
        assert t.triggered
        assert not t.processed


class TestProcess:
    def test_return_value_becomes_event_value(self, env):
        def proc(env):
            yield env.timeout(1.0)
            return "result"

        p = env.process(proc(env))
        assert env.run(until=p) == "result"

    def test_process_waits_on_timeouts(self, env):
        trace = []

        def proc(env):
            yield env.timeout(2.0)
            trace.append(env.now)
            yield env.timeout(3.0)
            trace.append(env.now)

        env.process(proc(env))
        env.run()
        assert trace == [2.0, 5.0]

    def test_processes_can_wait_on_each_other(self, env):
        def child(env):
            yield env.timeout(4.0)
            return 99

        def parent(env):
            value = yield env.process(child(env))
            return value + 1

        p = env.process(parent(env))
        assert env.run(until=p) == 100

    def test_yielding_non_event_kills_process(self, env):
        def proc(env):
            yield 42

        p = env.process(proc(env))
        with pytest.raises(SimulationError, match="non-event"):
            env.run()
        assert p.triggered
        assert not p._ok

    def test_exception_in_process_propagates_when_unwatched(self, env):
        def proc(env):
            yield env.timeout(1.0)
            raise ValueError("dead")

        env.process(proc(env))
        with pytest.raises(ValueError, match="dead"):
            env.run()

    def test_exception_catchable_by_waiting_process(self, env):
        def child(env):
            yield env.timeout(1.0)
            raise ValueError("dead")

        caught = []

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as exc:
                caught.append(str(exc))

        env.process(parent(env))
        env.run()
        assert caught == ["dead"]

    def test_waiting_on_failed_event_throws_into_process(self, env):
        ev = env.event()
        caught = []

        def proc(env):
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(proc(env))
        ev.fail(RuntimeError("zap"))
        env.run()
        assert caught == ["zap"]

    def test_yield_already_processed_event_resumes_immediately(self, env):
        ev = env.event()
        ev.succeed("early")
        env.run()  # process the event
        got = []

        def proc(env):
            value = yield ev
            got.append((env.now, value))

        env.process(proc(env))
        env.run()
        assert got == [(0.0, "early")]

    def test_is_alive(self, env):
        def proc(env):
            yield env.timeout(1.0)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)


class TestConditions:
    def test_any_of_fires_on_first(self, env):
        t1 = env.timeout(5.0, value="fast")
        t2 = env.timeout(10.0, value="slow")
        cond = AnyOf(env, [t1, t2])
        result = env.run(until=cond)
        assert env.now == 5.0
        assert result == {t1: "fast"}

    def test_any_of_does_not_fire_early_for_pending_timeouts(self, env):
        # Regression: AnyOf over (fresh event, pending timeout) must wait.
        wake = env.event()
        timer = env.timeout(100.0)
        cond = AnyOf(env, [wake, timer])
        env.run(until=50.0)
        assert not cond.processed
        env.run(until=150.0)
        assert cond.processed
        assert timer in cond.value and wake not in cond.value

    def test_empty_condition_succeeds_immediately(self, env):
        cond = AnyOf(env, [])
        env.run(until=cond)
        assert env.now == 0.0
        assert cond.value == {}

    def test_condition_failure_propagates(self, env):
        ev = env.event()
        bad = env.event()
        cond = AnyOf(env, [ev, bad])
        bad.fail(RuntimeError("inner"))
        with pytest.raises(RuntimeError, match="inner"):
            env.run(until=cond)

    def test_late_failure_after_condition_settled_is_defused(self, env):
        fast = env.timeout(1.0)
        slow = env.event()
        cond = AnyOf(env, [fast, slow])
        env.run(until=cond)
        slow.fail(RuntimeError("late"))
        env.run(until=10.0)  # must not raise

    def test_condition_value_of_accessor(self, env):
        t = env.timeout(1.0, value="v")
        cond = AnyOf(env, [t])
        env.run(until=cond)
        assert cond.value.of(t) == "v"

    def test_cross_environment_condition_rejected(self, env):
        other = Environment()
        t = other.timeout(1.0)
        with pytest.raises(SimulationError):
            AnyOf(env, [t])

    def test_already_processed_event_counts(self, env):
        t = env.timeout(1.0, value="x")
        env.run(until=2.0)
        assert t.processed
        pending = env.timeout(5.0)
        cond = AnyOf(env, [t, pending])
        env.run(until=cond)
        assert env.now == 2.0  # settled at once, not when ``pending`` fires
        assert cond.value == {t: "x"}
