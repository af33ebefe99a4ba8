"""Unit tests for the environment: ordering, priorities, run semantics."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


class TestScheduling:
    def test_clock_starts_at_initial_time(self):
        assert Environment().now == 0.0

    def test_fifo_order_at_same_timestamp(self, env):
        order = []
        for i in range(5):
            ev = env.event()
            ev.callbacks.append(lambda e, i=i: order.append(i))
            ev.succeed()
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_urgent_processed_before_normal(self, env):
        order = []
        normal = env.event()
        normal.callbacks.append(lambda e: order.append("normal"))
        normal.succeed()
        urgent = env.event()
        urgent.callbacks.append(lambda e: order.append("urgent"))
        urgent._ok = True
        urgent._value = None
        env._schedule(urgent, priority=0)
        env.run()
        assert order == ["urgent", "normal"]

    def test_time_ordering(self, env):
        times = []

        def proc(env, delay):
            yield env.timeout(delay)
            times.append(env.now)

        for d in (5.0, 1.0, 3.0):
            env.process(proc(env, d))
        env.run()
        assert times == [1.0, 3.0, 5.0]


class TestRun:
    def test_run_until_time_stops_exactly(self, env):
        fired = []

        def proc(env):
            while True:
                yield env.timeout(1.0)
                fired.append(env.now)

        env.process(proc(env))
        env.run(until=3.5)
        assert env.now == 3.5
        assert fired == [1.0, 2.0, 3.0]

    def test_events_at_until_are_not_processed(self, env):
        fired = []

        def proc(env):
            yield env.timeout(5.0)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=5.0)
        assert fired == []  # NORMAL event at t=5 stays pending
        assert env.now == 5.0

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2.0)
            return "val"

        assert env.run(until=env.process(proc(env))) == "val"

    def test_run_until_past_raises(self, env):
        env.run(until=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_run_until_nan_raises(self, env):
        # Used to return with ``now == nan``.
        env.timeout(1.0)
        with pytest.raises(ValueError):
            env.run(until=math.nan)
        assert env.now == 0.0

    def test_run_until_never_triggered_event_raises(self, env):
        ev = env.event()
        with pytest.raises(SimulationError, match="never triggered"):
            env.run(until=ev)

    def test_run_to_exhaustion_returns_none(self, env):
        env.timeout(1.0)
        assert env.run() is None
        assert env.now == 1.0

    def test_run_until_failed_event_raises(self, env):
        def proc(env):
            yield env.timeout(1.0)
            raise KeyError("k")

        p = env.process(proc(env))
        with pytest.raises(KeyError):
            env.run(until=p)

    def test_run_until_already_processed_event(self, env):
        t = env.timeout(1.0, value="v")
        env.run()
        assert env.run(until=t) == "v"

    def test_clock_never_goes_backwards(self, env):
        stamps = []

        def proc(env, delays):
            for d in delays:
                yield env.timeout(d)
                stamps.append(env.now)

        env.process(proc(env, [3.0, 0.0, 2.0]))
        env.process(proc(env, [1.0, 1.0, 1.0]))
        env.run()
        assert stamps == sorted(stamps)

    def test_stale_stop_event_from_aborted_run_is_ignored(self, env):
        # Regression: if run(until=T) aborts on a crashed process, its stop
        # event must not terminate a later run early.
        def crasher(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(crasher(env))
        with pytest.raises(RuntimeError):
            env.run(until=1_000.0)
        assert env.now == 1.0
        env.run(until=2_000.0)
        assert env.now == 2_000.0

    def test_stale_stop_ignored_in_run_to_exhaustion(self, env):
        def crasher(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(crasher(env))
        with pytest.raises(RuntimeError):
            env.run(until=500.0)
        env.timeout(800.0)  # future work beyond the stale stop at 500
        env.run()
        assert env.now == 801.0  # 1.0 (crash time) + the 800 s timeout
