"""Property tests: `MultiStateDpmPolicy.two_state` energy accounting against
the classic `DiskDrive` over randomized request streams.

Hypothesis drives the randomization, so failures shrink automatically to a
minimal gap sequence; the `note()` lines print a paste-able reproduction
(the exact arrival times plus the drive construction) alongside the
shrunken example.
"""

import numpy as np
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.analysis.dpm import MultiStateDpmPolicy
from repro.disk import DiskDrive, ST3500630AS, make_dpm_ladder
from repro.sim import Environment
from repro.units import MB

SPEC = ST3500630AS

# Gaps straddle every regime: shorter than break-even (~53.3 s), inside
# the spin-down transition window, and deep standby.
gap_lists = st.lists(
    st.floats(min_value=0.05, max_value=400.0,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


def _run_drive(make, times, size, horizon):
    """Run one drive over the arrivals; returns it and its completed
    requests' response times in submission order."""
    env = Environment()
    drive = make(env)
    requests = []

    def feeder(env):
        for t in times:
            yield env.timeout(t - env.now)
            requests.append(drive.submit(0, size))

    env.process(feeder(env))
    env.run(until=horizon)
    return drive, [r.done.value for r in requests if r.done.triggered]


@given(gaps=gap_lists, size_mb=st.floats(min_value=1.0, max_value=200.0))
@settings(max_examples=60)
def test_two_state_policy_matches_classic_drive(gaps, size_mb):
    """The bridged analysis ladder reproduces the classic drive: same spin
    transitions, responses and energy (to float round-off from the
    beta -> descent-time reconstruction)."""
    times = np.cumsum(np.asarray(gaps))
    size = size_mb * MB
    horizon = float(times[-1]) + 500.0
    note(f"times = {times.tolist()!r}; size = {size!r}")
    note(
        "classic: DiskDrive(env, ST3500630AS); modern: "
        "DiskDrive(env, ST3500630AS, "
        "ladder=MultiStateDpmPolicy.two_state(ST3500630AS))"
    )

    classic, classic_responses = _run_drive(
        lambda env: DiskDrive(env, SPEC), times, size, horizon
    )
    modern, modern_responses = _run_drive(
        lambda env: DiskDrive(
            env, SPEC, ladder=MultiStateDpmPolicy.two_state(SPEC)
        ),
        times,
        size,
        horizon,
    )

    assert modern.stats.spinups == classic.stats.spinups
    assert modern.stats.spindowns == classic.stats.spindowns
    assert modern.stats.completions == classic.stats.completions
    assert len(classic_responses) == classic.stats.completions
    assert modern_responses == classic_responses
    energy_c = classic.energy()
    assert abs(modern.energy() - energy_c) <= 1e-9 * max(1.0, energy_c)


@given(gaps=gap_lists)
@settings(max_examples=60)
def test_ladder_energy_is_conserved(gaps):
    """Energy always equals the label-by-label timeline integral, and the
    residencies tile the elapsed time — across arbitrary descent/ascent
    cycles of the deepest preset ladder."""
    times = np.cumsum(np.asarray(gaps))
    horizon = float(times[-1]) + 150.0
    note(f"times = {times.tolist()!r}")
    ladder = make_dpm_ladder("drpm4", SPEC)
    drive, _ = _run_drive(
        lambda env: DiskDrive(env, SPEC, ladder=ladder),
        times,
        36 * MB,
        horizon,
    )
    durations = drive.state_durations()
    table = ladder.power_table(SPEC)
    assert drive.energy() == sum(
        table[state] * t for state, t in durations.items()
    )
    assert abs(sum(durations.values()) - horizon) <= 1e-9 * horizon
    # Wakes bill exactly the configured wake time per spin-up, never more.
    max_wake = max(r.wake_time for r in ladder.rungs)
    wake_total = sum(
        t for s, t in durations.items() if s.startswith("wake:")
    )
    assert wake_total <= drive.stats.spinups * max_wake + 1e-9
