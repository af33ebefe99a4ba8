"""Bench (extension): multi-state DPM ladders vs the paper's two-state policy.

The related work the paper builds on allows n power states; this bench
measures, in the simulator, how much an intermediate "nap" state saves on
gap mixes where the 53.3 s two-state threshold is too blunt, times the
closed-form schedule construction, and guards the array-level ladder
mode's fast-kernel speedup: ``StorageConfig(dpm_ladder=...)`` through the
per-rung ``_DiskBank`` recursion must beat the event engine >= 5x —
with and without online control — while agreeing to 1e-9.  The ladder
floor bounds the fast ladder path against the fast fixed path on the
same stream, so a fast-kernel regression on the ladder path fails too.
"""

import math
import time

import numpy as np
import pytest

from repro.disk import DiskDrive, ST3500630AS
from repro.disk.dpm import DpmState, MultiStateDpmPolicy
from repro.reporting.table import format_table
from repro.sim import Environment
from repro.system import StorageConfig, StorageSystem, allocate
from repro.units import MB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload

SPEC = ST3500630AS

NAP_LADDER = [
    DpmState("idle", 9.3, 0.0, 0.0),
    DpmState("nap", 4.0, 60.0, 2.0),
    DpmState("standby", 0.8, 453.0, 15.0),
]


def _simulate(policy: MultiStateDpmPolicy, gaps: np.ndarray):
    env = Environment()
    drive = DiskDrive(env, SPEC, ladder=policy)
    times = np.cumsum(gaps)
    requests = []

    def feeder(env):
        for t in times:
            yield env.timeout(t - env.now)
            requests.append(drive.submit(0, 72 * MB))

    env.process(feeder(env))
    env.run(until=float(times[-1]) + 30.0)
    responses = [r.done.value for r in requests if r.done.triggered]
    return drive.mean_power(), float(np.mean(responses))


def test_nap_state_payoff(benchmark, capsys):
    """Three-state vs two-state power on nap-sized gaps."""
    rng = np.random.default_rng(17)
    # Gap mix centred where the nap state pays: tens of seconds.
    gaps = rng.exponential(70.0, size=1_500)

    three = MultiStateDpmPolicy(NAP_LADDER)
    two = MultiStateDpmPolicy.two_state(SPEC)

    def run_three():
        return _simulate(three, gaps)

    power3, resp3 = benchmark.pedantic(run_three, rounds=1, iterations=1)
    power2, resp2 = _simulate(two, gaps)

    with capsys.disabled():
        print()
        print(format_table(
            [
                ["two-state (paper)", f"{power2:.2f}", f"{resp2:.2f}"],
                ["idle/nap/standby", f"{power3:.2f}", f"{resp3:.2f}"],
            ],
            headers=["policy", "mean power (W)", "mean response (s)"],
            title="DPM ladder extension on Exp(70 s) gaps",
        ))

    # The nap rung must save power on this gap mix...
    assert power3 < power2
    # ...without a response blow-up (nap wakes in 2 s vs 15 s).
    assert resp3 < resp2 + 1.0


def test_schedule_construction_throughput(benchmark):
    states = [DpmState("s0", 10.0, 0.0)] + [
        DpmState(f"s{i}", 10.0 - 0.9 * i, 50.0 * i**1.5, i)
        for i in range(1, 11)
    ]
    policy = benchmark(MultiStateDpmPolicy, states)
    assert policy.thresholds() == sorted(policy.thresholds())


def _timed(run, rounds):
    best = math.inf
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    return result, best


@pytest.mark.parametrize("dpm_policy", ["fixed", "adaptive_timeout"])
def test_fast_engine_speedup_ladder(scale, capsys, dpm_policy):
    """Array-level drpm4 ladder runs: the fast kernel must win >= 5x over
    the event engine (the ladder's extra per-gap work must not erase the
    batched kernel's advantage), agreeing to 1e-9."""
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=5_000,
            arrival_rate=6.0,
            duration=max(800.0, 4_000.0 * scale),
            seed=7,
        )
    )
    cfg = StorageConfig(
        num_disks=100,
        load_constraint=0.7,
        dpm_ladder="drpm4",
        dpm_policy=dpm_policy,
        control_interval=200.0,
    )
    mapping = allocate(workload.catalog, "pack", cfg, 6.0).mapping(
        workload.catalog.n
    )

    def run_engine(engine):
        return StorageSystem(
            workload.catalog, mapping, cfg.with_overrides(engine=engine)
        ).run(workload.stream)

    # Best-of-N so a scheduling hiccup on a shared CI runner cannot flip
    # the speedup assertion (the fast run is only milliseconds long).
    event, event_s = _timed(lambda: run_engine("event"), rounds=2)
    fast, fast_s = _timed(lambda: run_engine("fast"), rounds=5)
    fast_s = max(fast_s, 1e-9)

    assert fast.energy == pytest.approx(event.energy, rel=1e-9)
    assert fast.spinups == event.spinups
    assert fast.spindowns == event.spindowns
    assert fast.completions == event.completions
    assert event.spindowns > 0
    with capsys.disabled():
        print(
            f"\n[ladder/{dpm_policy}] {len(workload.stream)} requests: "
            f"event {event_s:.3f}s, fast {fast_s:.4f}s "
            f"({event_s / fast_s:.1f}x speedup)"
        )
    assert event_s >= 5.0 * fast_s


#: drpm4/fixed fast-run time ratio that the ladder path must stay under.
#: Over 9 runs on a 2-CPU x86-64 Linux host this test measured 1.17-1.35;
#: the floor is the top of that range plus 25% headroom.  Both sides run
#: the compiled serve core (8 runs: 1.01-1.09).
LADDER_FLOOR = 1.7


def test_ladder_floor(capsys):
    """A fast ``drpm4`` run vs a fast fixed two-state run on the canonical
    4,000 s stream (8,000 files from the catalog seed perfbench derives
    from its seed 0, R = 8 req/s, L = 0.7), timed on the same machine
    (interleaved best-of-7)."""
    seed = int(np.random.SeedSequence(0).generate_state(2)[0])
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=4_000.0, seed=seed
        )
    )
    fixed_cfg = StorageConfig(
        num_disks=100, load_constraint=0.7, engine="fast"
    )
    ladder_cfg = fixed_cfg.with_overrides(dpm_ladder="drpm4")
    mapping = allocate(workload.catalog, "pack", fixed_cfg, 8.0).mapping(
        workload.catalog.n
    )

    def run(cfg):
        return StorageSystem(workload.catalog, mapping, cfg).run(
            workload.stream
        )

    # Interleaved, so host drift hits both sides alike.
    ladder_s = fixed_s = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        ladder = run(ladder_cfg)
        t1 = time.perf_counter()
        fixed = run(fixed_cfg)
        t2 = time.perf_counter()
        ladder_s = min(ladder_s, t1 - t0)
        fixed_s = min(fixed_s, t2 - t1)
    assert ladder.spindowns > 0 and fixed.spindowns > 0
    ratio = ladder_s / fixed_s
    with capsys.disabled():
        print(
            f"\n[ladder floor] {len(workload.stream)} requests: drpm4 "
            f"{ladder_s:.4f}s, fixed {fixed_s:.4f}s "
            f"(ratio {ratio:.2f}, floor {LADDER_FLOOR})"
        )
    assert ratio < LADDER_FLOOR
