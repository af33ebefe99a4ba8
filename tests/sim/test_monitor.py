"""Unit tests for StateTimeline."""

import pytest

from repro.sim import StateTimeline


def advance(env, dt):
    """Advance the clock by scheduling and consuming a timeout."""
    env.timeout(dt)
    env.run()


class TestStateTimeline:
    def test_durations_accumulate(self, env):
        tl = StateTimeline(env, "a")
        advance(env, 5.0)
        tl.set("b")
        advance(env, 3.0)
        tl.set("a")
        advance(env, 2.0)
        durations = tl.durations()
        assert durations["a"] == pytest.approx(7.0)
        assert durations["b"] == pytest.approx(3.0)

    def test_open_interval_included(self, env):
        tl = StateTimeline(env, "x")
        advance(env, 4.0)
        assert tl.durations()["x"] == pytest.approx(4.0)

    def test_transitions_counted_only_on_change(self, env):
        tl = StateTimeline(env, "a")
        tl.set("a")  # no change
        tl.set("b")
        tl.set("b")
        tl.set("c")
        assert tl.transitions == 2

    def test_history_recording(self, env):
        tl = StateTimeline(env, "a", record_history=True)
        advance(env, 1.0)
        tl.set("b")
        advance(env, 1.0)
        tl.set("c")
        assert tl.history == [(0.0, "a"), (1.0, "b"), (2.0, "c")]

    def test_history_disabled_by_default(self, env):
        assert StateTimeline(env, "a").history is None

    def test_weighted_total(self, env):
        tl = StateTimeline(env, "on")
        advance(env, 10.0)
        tl.set("off")
        advance(env, 5.0)
        assert tl.weighted_total({"on": 2.0, "off": 1.0}) == pytest.approx(25.0)

    def test_weighted_total_missing_state_raises(self, env):
        tl = StateTimeline(env, "on")
        advance(env, 1.0)
        with pytest.raises(KeyError):
            tl.weighted_total({})

    def test_durations_sum_to_total_time(self, env):
        tl = StateTimeline(env, 0)
        for i, dt in enumerate([1.5, 2.5, 0.0, 4.0]):
            advance(env, dt)
            tl.set(i % 2)
        assert sum(tl.durations().values()) == pytest.approx(tl.total_time())
