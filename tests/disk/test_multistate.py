"""Tests for the drive on multi-state ladders, including exact equivalence
with the ladder-free (classic two-state) drive and energy conservation across descent/ascent
cycles (wake transitions bill spin-up power for the *configured* wake
time; descents are explicit, non-abortable transitions)."""

import math

import numpy as np
import pytest

from repro.analysis.dpm import DpmState, MultiStateDpmPolicy
from repro.disk.dpm import CLASSIC_STATES
from repro.disk import (
    DiskDrive,
    DiskState,
    DpmLadder,
    LadderRung,
    ST3500630AS,
    make_dpm_ladder,
)
from repro.errors import ConfigError, SimulationError
from repro.sim import Environment
from repro.units import MB

SPEC = ST3500630AS

NAP_LADDER = [
    DpmState("idle", 9.3, 0.0, 0.0),
    DpmState("nap", 4.0, 60.0, 2.0),
    DpmState("standby", 0.8, 453.0, 15.0),
]


def feed(env, drive, times, size=72 * MB):
    """Submit one request per time; returns the list the requests land in."""
    requests = []

    def feeder(env):
        for t in times:
            yield env.timeout(t - env.now)
            requests.append(drive.submit(0, size))

    env.process(feeder(env))
    return requests


def responses(requests):
    """Response times of the completed requests, in submission order."""
    return [r.done.value for r in requests if r.done.triggered]


class TestLadderValidation:
    def test_rung0_must_be_transitionless(self):
        with pytest.raises(ConfigError):
            DpmLadder("bad", (LadderRung("idle", 9.3, entry=1.0),))

    def test_powers_must_decrease(self):
        with pytest.raises(ConfigError):
            DpmLadder(
                "bad",
                (
                    LadderRung("idle", 9.3),
                    LadderRung("deep", 9.3, entry=10.0),
                ),
            )

    def test_descent_must_fit_before_next_entry(self):
        with pytest.raises(ConfigError):
            DpmLadder(
                "bad",
                (
                    LadderRung("idle", 9.3),
                    LadderRung("nap", 4.0, entry=10.0, down_time=30.0),
                    LadderRung("standby", 0.8, entry=20.0),
                ),
            )

    def test_reserved_names_rejected(self):
        with pytest.raises(ConfigError):
            LadderRung("down:x", 1.0)
        with pytest.raises(ConfigError):
            LadderRung("seek", 1.0)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            make_dpm_ladder("nope", SPEC)


class TestScaledEntries:
    def test_native_threshold_is_exact_identity(self):
        ladder = make_dpm_ladder("drpm4", SPEC)
        assert ladder.scaled_entries(ladder.base_threshold) == ladder.entries

    def test_scaling_moves_every_entry(self):
        ladder = make_dpm_ladder("drpm4", SPEC)
        doubled = ladder.scaled_entries(2 * ladder.base_threshold)
        assert doubled[1] == 2 * ladder.base_threshold
        assert all(
            d >= n for d, n in zip(doubled[1:], ladder.entries[1:])
        )

    def test_zero_threshold_cascades_descents(self):
        ladder = make_dpm_ladder("drpm4", SPEC)
        entries = ladder.scaled_entries(0.0)
        assert entries[1] == 0.0
        # Each later descent waits for the previous transition to finish.
        for i in range(2, len(entries)):
            assert entries[i] == pytest.approx(
                entries[i - 1] + ladder.rungs[i - 1].down_time
            )

    def test_inf_disables_descent(self):
        ladder = make_dpm_ladder("nap", SPEC)
        assert ladder.scaled_entries(math.inf) == (0.0, math.inf, math.inf)


class TestBasicService:
    def test_serves_fifo(self):
        env = Environment()
        drive = DiskDrive(
            env, SPEC, ladder=MultiStateDpmPolicy(NAP_LADDER)
        )
        first = drive.submit(0, 72 * MB)
        second = drive.submit(1, 72 * MB)
        env.run(until=second.done)
        assert first.done.value < second.done.value

    def test_negative_size_rejected(self):
        env = Environment()
        drive = DiskDrive(
            env, SPEC, ladder=MultiStateDpmPolicy(NAP_LADDER)
        )
        with pytest.raises(SimulationError):
            drive.submit(0, -1.0)

    def test_nan_size_rejected(self):
        env = Environment()
        drive = DiskDrive(
            env, SPEC, ladder=MultiStateDpmPolicy(NAP_LADDER)
        )
        with pytest.raises(SimulationError, match="size"):
            drive.submit(0, float("nan"))
        assert drive.queue_depth == 0

    def test_nan_threshold_rejected(self):
        # Used to pass the ``< 0`` check and fail later, untyped, inside
        # the descent timer.
        env = Environment()
        with pytest.raises(SimulationError, match="threshold"):
            DiskDrive(
                env, SPEC, ladder=MultiStateDpmPolicy(NAP_LADDER),
                idleness_threshold=math.nan,
            )

    def test_descends_ladder_when_idle(self):
        env = Environment()
        drive = DiskDrive(env, SPEC, ladder=MultiStateDpmPolicy(NAP_LADDER))
        ladder = drive.ladder
        t1, t2 = ladder.rungs[1].entry, ladder.rungs[2].entry
        env.run(until=(t1 + t2) / 2)
        assert drive.state == "nap"
        env.run(until=t2 + ladder.rungs[2].down_time + 1.0)
        assert drive.state == "standby"
        assert not drive.spinning

    def test_descent_is_not_abortable(self):
        # An arrival mid-descent waits for the transition to finish, then
        # pays the wake — exactly the classic SPINDOWN semantics.
        env = Environment()
        ladder = make_dpm_ladder("two_state", SPEC)
        drive = DiskDrive(env, SPEC, ladder=ladder)
        entry = ladder.rungs[1].entry
        arrival = entry + SPEC.spindown_time / 2
        requests = feed(env, drive, [arrival])
        env.run(until=arrival + 100.0)
        expected_start = entry + SPEC.spindown_time + SPEC.spinup_time
        (response,) = responses(requests)
        assert response == pytest.approx(
            expected_start - arrival + SPEC.access_overhead + 1.0, abs=1e-9
        )

    def test_wake_from_nap_is_cheaper_than_standby(self):
        policy = MultiStateDpmPolicy(NAP_LADDER)
        t1, t2 = policy.thresholds()

        def response_after(idle_gap):
            env = Environment()
            drive = DiskDrive(env, SPEC, ladder=policy)
            requests = feed(env, drive, [idle_gap])
            env.run(until=idle_gap + 200.0)
            (response,) = responses(requests)
            return response

        from_nap = response_after((t1 + t2) / 2)
        from_standby = response_after(t2 * 3)
        assert from_nap < from_standby
        assert from_standby == pytest.approx(15.0 + 1.0, abs=0.1)

    def test_arrival_before_first_threshold_no_penalty(self):
        env = Environment()
        policy = MultiStateDpmPolicy(NAP_LADDER)
        drive = DiskDrive(env, SPEC, ladder=policy)
        requests = feed(env, drive, [10.0])
        env.run(until=100.0)
        assert drive.stats.spinups == 0
        assert responses(requests) == pytest.approx(
            [1.0 + SPEC.access_overhead], abs=1e-6
        )

    def test_threshold_scales_descent(self):
        # Halving the drive's threshold halves the first descent time.
        env = Environment()
        ladder = make_dpm_ladder("nap", SPEC)
        drive = DiskDrive(
            env, SPEC, ladder=ladder,
            idleness_threshold=ladder.base_threshold / 2,
        )
        env.run(until=ladder.base_threshold / 2 + ladder.rungs[1].down_time + 0.5)
        assert drive.state == "nap"


class TestEnergyAccounting:
    def test_durations_cover_elapsed(self):
        env = Environment()
        drive = DiskDrive(
            env, SPEC, ladder=MultiStateDpmPolicy(NAP_LADDER)
        )
        feed(env, drive, [50.0, 400.0, 2_000.0])
        env.run(until=5_000.0)
        assert sum(drive.state_durations().values()) == pytest.approx(5_000.0)

    def test_energy_conserved_across_descent_ascent_cycles(self):
        """Regression: energy must equal the label-by-label integral of the
        timeline — wakes billed at wake power for the *configured* wake
        time, descents at down power for the descent time, no lump sums.
        The old drive folded a spin-down-shaped residue into the wake and
        double-billed standby residency during the transition window.
        """
        env = Environment()
        ladder = make_dpm_ladder("drpm4", SPEC)
        drive = DiskDrive(env, SPEC, ladder=ladder)
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.exponential(90.0, size=80))
        feed(env, drive, times)
        env.run(until=float(times[-1]) + 500.0)
        assert drive.stats.spinups > 0
        durations = drive.state_durations()
        table = ladder.power_table(SPEC)
        assert drive.energy() == sum(
            table[state] * t for state, t in durations.items()
        )
        # Wake residency is exactly (wake count) x (configured wake times).
        wake_time = sum(
            t for s, t in durations.items() if s.startswith("wake:")
        )
        per_wake = {
            f"wake:{r.name}": r.wake_time for r in ladder.rungs[1:]
        }
        assert wake_time <= drive.stats.spinups * max(per_wake.values())
        assert sum(durations.values()) == pytest.approx(env.now)

    def test_two_state_ladder_matches_classic_drive_exactly(self):
        """The drive on Table 2's two-state ladder is the ladder-free
        drive bit for bit: same spin transitions, same response times,
        same energy, and the same history once its labels go through
        the shared label map."""
        rng = np.random.default_rng(5)
        times = np.cumsum(rng.exponential(120.0, size=300))

        env_a = Environment()
        classic = DiskDrive(env_a, SPEC, record_history=True)  # break-even
        classic_requests = feed(env_a, classic, times)
        env_a.run(until=float(times[-1]) + 100.0)

        env_b = Environment()
        modern = DiskDrive(
            env_b, SPEC, record_history=True,
            ladder=make_dpm_ladder("two_state", SPEC),
        )
        modern_requests = feed(env_b, modern, times)
        env_b.run(until=float(times[-1]) + 100.0)

        assert modern.stats.spinups == classic.stats.spinups
        assert modern.stats.spindowns == classic.stats.spindowns
        assert modern.stats.completions == classic.stats.completions
        classic_responses = responses(classic_requests)
        assert len(classic_responses) == classic.stats.completions
        assert responses(modern_requests) == classic_responses
        assert modern.energy() == classic.energy()
        label = {state: name for name, state in CLASSIC_STATES.items()}
        modern_durations = modern.state_durations()
        for state, t in classic.state_durations().items():
            assert modern_durations.get(label[state], 0.0) == t
        # The ladder-free drive re-enters IDLE for zero time after each
        # SPINUP; otherwise the histories agree entry for entry.
        history = classic.timeline.history
        rests = {
            i + 1 for i, (_, state) in enumerate(history)
            if state is DiskState.SPINUP
        }
        assert len(rests) == classic.stats.spinups > 0
        for i in rests:
            assert history[i][1] is DiskState.IDLE
            assert history[i + 1][0] == history[i][0]
        assert [e for i, e in enumerate(history) if i not in rests] == [
            (t, CLASSIC_STATES[name]) for t, name in modern.timeline.history
        ]

    def test_policy_bridge_matches_classic_to_float_noise(self):
        """MultiStateDpmPolicy.two_state bridged through from_policy keeps
        the classic energy accounting (the descent residue reconstructs
        the spin-down transition up to float round-off)."""
        rng = np.random.default_rng(9)
        times = np.cumsum(rng.exponential(150.0, size=150))

        env_a = Environment()
        classic = DiskDrive(env_a, SPEC)
        classic_requests = feed(env_a, classic, times)
        env_a.run(until=float(times[-1]) + 100.0)

        env_b = Environment()
        modern = DiskDrive(
            env_b, SPEC, ladder=MultiStateDpmPolicy.two_state(SPEC)
        )
        modern_requests = feed(env_b, modern, times)
        env_b.run(until=float(times[-1]) + 100.0)

        assert modern.stats.spinups == classic.stats.spinups
        assert modern.energy() == pytest.approx(classic.energy(), rel=1e-9)
        classic_responses = responses(classic_requests)
        assert len(classic_responses) == classic.stats.completions
        assert responses(modern_requests) == classic_responses

    def test_nap_state_saves_energy_on_medium_gaps(self):
        # Gaps sized for the nap state: the three-state ladder must beat
        # the two-state ladder on energy.
        policy3 = MultiStateDpmPolicy(NAP_LADDER)
        t1, t2 = policy3.thresholds()
        gap = (t1 + t2) / 2
        times = np.cumsum(np.full(100, gap))

        def run(policy):
            env = Environment()
            drive = DiskDrive(env, SPEC, ladder=policy)
            feed(env, drive, times)
            env.run(until=float(times[-1]) + 10.0)
            return drive.energy()

        two_state = MultiStateDpmPolicy(
            [NAP_LADDER[0], NAP_LADDER[2]]
        )
        assert run(policy3) < run(two_state)

    def test_gap_log_matches_classic_contract(self):
        env = Environment()
        drive = DiskDrive(
            env, SPEC, ladder=make_dpm_ladder("nap", SPEC)
        )
        drive.gap_log = []
        feed(env, drive, [40.0, 45.0, 300.0])
        env.run(until=400.0)
        gaps = [g for _, g, _ in drive.gap_log]
        assert gaps[0] == pytest.approx(40.0)
        assert all(d == drive.disk_id for d, _, _ in drive.gap_log)
        assert all(th == drive.threshold for _, _, th in drive.gap_log)
