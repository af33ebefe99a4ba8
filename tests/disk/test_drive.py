"""Behavioural tests for the simulated drive: the heart of the power model."""

import math

import pytest

from repro.disk import DiskDrive, DiskState, ST3500630AS
from repro.errors import SimulationError
from repro.sim import Environment
from repro.units import MB

SPEC = ST3500630AS
OVERHEAD = SPEC.access_overhead  # 12.66 ms


def make_drive(env, **kwargs):
    kwargs.setdefault("idleness_threshold", math.inf)
    return DiskDrive(env, SPEC, **kwargs)


class TestService:
    def test_response_equals_service_when_idle(self, env):
        drive = make_drive(env)
        req = drive.submit(0, 72 * MB)
        env.run(until=req.done)
        assert req.done.value == pytest.approx(1.0 + OVERHEAD)

    def test_fifo_service_order(self, env):
        drive = make_drive(env)
        first = drive.submit(0, 72 * MB)
        second = drive.submit(1, 72 * MB)
        env.run(until=second.done)
        assert first.done.value == pytest.approx(1.0 + OVERHEAD)
        assert second.done.value == pytest.approx(2.0 + 2 * OVERHEAD)

    def test_queueing_delay_included(self, env):
        drive = make_drive(env)
        drive.submit(0, 720 * MB)  # 10 s service

        def late(env):
            yield env.timeout(5.0)
            req = drive.submit(1, 72 * MB)
            value = yield req.done
            return value

        p = env.process(late(env))
        response = env.run(until=p)
        # Arrives at 5, starts at ~10.01, finishes at ~11.02.
        assert response == pytest.approx(10 * (1 + 0.001266) - 5 + 1 + OVERHEAD, rel=1e-3)

    def test_zero_size_request(self, env):
        drive = make_drive(env)
        req = drive.submit(0, 0.0)
        env.run(until=req.done)
        assert req.done.value == pytest.approx(OVERHEAD)

    def test_negative_size_rejected(self, env):
        drive = make_drive(env)
        with pytest.raises(SimulationError):
            drive.submit(0, -1.0)

    def test_nan_size_rejected(self, env):
        # Used to leave the drive in ACTIVE with a request that never
        # completed.
        drive = make_drive(env)
        with pytest.raises(SimulationError, match="size"):
            drive.submit(0, float("nan"))
        assert drive.queue_depth == 0

    def test_write_requests_counted(self, env):
        drive = make_drive(env)
        req = drive.submit(0, 72 * MB, kind="write")
        env.run(until=req.done)
        assert drive.stats.writes == 1
        assert drive.stats.reads == 0


class TestSpinDown:
    def test_spins_down_after_threshold(self):
        env = Environment()
        drive = DiskDrive(env, SPEC, idleness_threshold=100.0)
        req = drive.submit(0, 72 * MB)
        env.run(until=req.done)
        env.run(until=env.now + 99.0)
        assert drive.state is DiskState.IDLE
        env.run(until=env.now + 2.0 + SPEC.spindown_time)
        assert drive.state is DiskState.STANDBY
        assert drive.stats.spindowns == 1

    def test_never_spins_down_with_infinite_threshold(self, env):
        drive = make_drive(env)
        req = drive.submit(0, 72 * MB)
        env.run(until=req.done)
        env.run(until=env.now + 100_000.0)
        assert drive.state is DiskState.IDLE
        assert drive.stats.spindowns == 0

    def test_zero_threshold_spins_down_immediately(self):
        env = Environment()
        drive = DiskDrive(env, SPEC, idleness_threshold=0.0)
        req = drive.submit(0, 72 * MB)
        env.run(until=req.done)
        env.run(until=env.now + SPEC.spindown_time + 0.1)
        assert drive.state is DiskState.STANDBY

    def test_spin_up_penalty_on_standby_hit(self):
        env = Environment()
        drive = DiskDrive(env, SPEC, idleness_threshold=50.0)
        env.run(until=200.0)  # idle 50 s, down 10 s, standby
        assert drive.state is DiskState.STANDBY
        req = drive.submit(0, 72 * MB)
        env.run(until=req.done)
        assert req.done.value == pytest.approx(
            SPEC.spinup_time + 1.0 + OVERHEAD
        )
        assert drive.stats.spinups == 1

    def test_arrival_during_spindown_waits_full_transition(self):
        env = Environment()
        drive = DiskDrive(env, SPEC, idleness_threshold=50.0)

        def poke(env):
            yield env.timeout(55.0)  # mid-spin-down (50..60)
            req = drive.submit(0, 72 * MB)
            value = yield req.done
            return value

        p = env.process(poke(env))
        response = env.run(until=p)
        # Waits the remaining 5 s of spin-down + full 15 s spin-up.
        assert response == pytest.approx(5.0 + SPEC.spinup_time + 1.0 + OVERHEAD)

    def test_request_resets_idle_timer(self):
        env = Environment()
        drive = DiskDrive(env, SPEC, idleness_threshold=100.0)

        def pinger(env):
            for _ in range(5):
                yield env.timeout(90.0)
                drive.submit(0, 1 * MB)

        env.process(pinger(env))
        env.run(until=460.0)
        assert drive.stats.spindowns == 0

    def test_negative_threshold_rejected(self, env):
        with pytest.raises(SimulationError):
            DiskDrive(env, SPEC, idleness_threshold=-1.0)

    def test_nan_threshold_rejected(self, env):
        # Used to pass the ``< 0`` check and fail later, untyped, inside
        # the idleness timer.
        with pytest.raises(SimulationError, match="threshold"):
            DiskDrive(env, SPEC, idleness_threshold=math.nan)

    def test_default_threshold_is_breakeven(self, env):
        drive = DiskDrive(env, SPEC)
        assert drive.threshold == pytest.approx(SPEC.breakeven_threshold())


class TestEnergyAccounting:
    def test_durations_cover_elapsed_time(self):
        env = Environment()
        drive = DiskDrive(env, SPEC, idleness_threshold=30.0)
        for t in (0.0, 100.0, 500.0):
            pass
        drive.submit(0, 72 * MB)

        def more(env):
            yield env.timeout(100.0)
            drive.submit(1, 144 * MB)
            yield env.timeout(400.0)
            drive.submit(2, 72 * MB)

        env.process(more(env))
        env.run(until=1_000.0)
        total = sum(drive.state_durations().values())
        assert total == pytest.approx(1_000.0)

    def test_energy_matches_manual_integration(self):
        env = Environment()
        drive = DiskDrive(env, SPEC, idleness_threshold=math.inf)
        req = drive.submit(0, 720 * MB)  # 10 s transfer
        env.run(until=100.0)
        expected = (
            SPEC.seek_power * OVERHEAD
            + SPEC.active_power * 10.0
            + SPEC.idle_power * (100.0 - 10.0 - OVERHEAD)
        )
        assert drive.energy() == pytest.approx(expected, rel=1e-9)
        assert req.done.processed

    def test_standby_energy(self):
        env = Environment()
        drive = DiskDrive(env, SPEC, idleness_threshold=10.0)
        env.run(until=1_000.0)
        # 10 s idle + 10 s spindown + 980 s standby.
        expected = 9.3 * 10 + 93.0 + 0.8 * 980
        assert drive.energy() == pytest.approx(expected)

    def test_mean_power_between_standby_and_spinup(self):
        env = Environment()
        drive = DiskDrive(env, SPEC, idleness_threshold=60.0)

        def traffic(env):
            for _ in range(10):
                yield env.timeout(200.0)
                drive.submit(0, 72 * MB)

        env.process(traffic(env))
        env.run(until=2_100.0)
        assert SPEC.standby_power < drive.mean_power() < SPEC.spinup_power

    def test_stats_counters(self):
        env = Environment()
        drive = DiskDrive(env, SPEC, idleness_threshold=math.inf)
        for i in range(5):
            drive.submit(i, 10 * MB)
        env.run(until=100.0)
        assert drive.stats.arrivals == 5
        assert drive.stats.completions == 5
        assert drive.stats.bytes_transferred == pytest.approx(50 * MB)
        assert drive.stats.reads == 5
