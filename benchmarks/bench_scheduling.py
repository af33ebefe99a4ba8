"""Bench: request scheduling overhead and the fast kernel's speedup.

Guards two properties of the slack-aware scheduling subsystem:

* **scheduled-kernel speedup** — with a deferring request scheduler in
  front of the drives (the scheduling pre-pass re-times every arrival
  before the Lindley banks see it) the fast kernel must still beat the
  event engine by >= 5x while agreeing on the physics request-by-request;
* **composition** — the scheduler composes with the ``slo_feedback``
  controller (the scheduler reads the controller's live percentile
  telemetry for its stress gate) without breaking cross-engine agreement
  on the control trajectory;
* **scheduled floor** — a fast ``slack_defer`` run must stay within a
  fixed multiple of the fast fixed-threshold run on the same inputs,
  timed on the same machine, so a slow-down of the compiled release
  decisions trips it;
* **controlled-path floor** — the fast kernel's slowest composed path
  (``drpm4`` + ``slo_feedback`` + ``slack_defer`` + streaming metrics)
  must stay within a fixed multiple of the fast fixed-threshold run on
  the same inputs, timed on the same machine.  Unlike the event-engine
  ratios above, these catch a slowdown of the fast kernel itself.
"""

import math
import time

import numpy as np
import pytest

from repro.system import StorageConfig, StorageSystem, allocate
from repro.units import MB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload


def _timed(run, rounds):
    best = math.inf
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_fast_engine_speedup_under_scheduling(scale, capsys):
    """Deferring scheduler: fast must win 5x over the event engine."""
    duration = max(800.0, 4_000.0 * scale)
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=6_000,
            arrival_rate=6.0,
            duration=duration,
            seed=11,
            s_max=500 * MB,
            s_min=20 * MB,
        )
    )
    cfg = StorageConfig(
        num_disks=100,
        load_constraint=0.6,
        idleness_threshold=60.0,
        scheduler="slack_defer",
        scheduler_params=(("target", 90.0), ("max_hold", 75.0)),
    )
    mapping = allocate(
        workload.catalog, "round_robin", cfg, 6.0, num_disks=100
    ).mapping(workload.catalog.n)

    def run_engine(engine):
        system = StorageSystem(
            workload.catalog, mapping, cfg.with_overrides(engine=engine)
        )
        return system.run(workload.stream)

    # Best-of-N so a scheduling hiccup on a shared CI runner cannot flip
    # the speedup assertion (the fast run is only milliseconds long).
    event, event_s = _timed(lambda: run_engine("event"), rounds=2)
    fast, fast_s = _timed(lambda: run_engine("fast"), rounds=5)
    fast_s = max(fast_s, 1e-9)

    assert fast.energy == pytest.approx(event.energy, rel=1e-6)
    assert fast.mean_response == pytest.approx(event.mean_response, rel=1e-6)
    assert fast.spinups == event.spinups
    assert fast.completions == event.completions
    with capsys.disabled():
        print(
            f"\n[scheduling] {len(workload.stream)} requests, slack_defer: "
            f"event {event_s:.3f}s, fast {fast_s:.4f}s "
            f"({event_s / fast_s:.1f}x speedup)"
        )
    assert event_s >= 5.0 * fast_s


def test_scheduler_composes_with_controller(scale, capsys):
    """slack_defer + slo_feedback: both engines, same control trajectory."""
    duration = max(800.0, 4_000.0 * scale)
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=4_000,
            arrival_rate=4.0,
            duration=duration,
            seed=13,
            s_max=500 * MB,
            s_min=20 * MB,
        )
    )
    cfg = StorageConfig(
        num_disks=100,
        load_constraint=0.6,
        dpm_policy="slo_feedback",
        slo_target=90.0,
        control_interval=max(50.0, duration / 10.0),
        scheduler="slack_defer",
        scheduler_params=(("max_hold", 75.0),),
    )
    mapping = allocate(
        workload.catalog, "round_robin", cfg, 4.0, num_disks=100
    ).mapping(workload.catalog.n)

    def run_engine(engine):
        system = StorageSystem(
            workload.catalog, mapping, cfg.with_overrides(engine=engine)
        )
        return system.run(workload.stream)

    event, event_s = _timed(lambda: run_engine("event"), rounds=1)
    fast, fast_s = _timed(lambda: run_engine("fast"), rounds=3)
    fast_s = max(fast_s, 1e-9)

    assert fast.energy == pytest.approx(event.energy, rel=1e-6)
    assert fast.spinups == event.spinups
    # The controller walked the same trajectory on both engines even with
    # the scheduler re-timing arrivals underneath it.
    assert (
        fast.extra["dpm"]["thresholds"] == event.extra["dpm"]["thresholds"]
    )
    with capsys.disabled():
        print(
            f"\n[scheduling+control] {len(workload.stream)} requests: "
            f"event {event_s:.3f}s, fast {fast_s:.4f}s "
            f"({event_s / fast_s:.1f}x speedup)"
        )


#: slack_defer/fixed fast-run time ratio the scheduled path must stay
#: under.  The fixed side serves through the Python oracle loop
#: (``oracle_core``), like the other same-machine floors.  With the
#: release decisions compiled it measured 0.34-0.41 over 11 runs on a
#: 2-CPU x86-64 Linux VM, and 1.80-1.93 over 3 runs with the rules forced
#: onto their Python loops; the floor is the top of the compiled range plus
#: 25% headroom.  The rules no longer have a Python fallback, so what
#: the floor guards now is a slow-down of the compiled rules themselves.
SCHEDULED_FLOOR = 0.5


def test_scheduled_floor(capsys, oracle_core):
    """A fast ``slack_defer`` run vs a fast fixed run on the canonical
    4,000 s stream (8,000 files from the catalog seed perfbench derives
    from its seed 0, R = 8 req/s, L = 0.7), timed on the same machine
    (interleaved best-of-7)."""
    seed = int(np.random.SeedSequence(0).generate_state(2)[0])
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=4_000.0, seed=seed
        )
    )
    fixed = StorageConfig(num_disks=100, load_constraint=0.7, engine="fast")
    scheduled = fixed.with_overrides(
        slo_target=60.0,
        scheduler="slack_defer",
        scheduler_params={"max_hold": 30.0},
    )
    mapping = allocate(workload.catalog, "pack", fixed, 8.0).mapping(
        workload.catalog.n
    )

    def run(cfg):
        return StorageSystem(workload.catalog, mapping, cfg).run(
            workload.stream
        )

    # Interleaved, so host drift hits both sides alike.
    fixed_s = scheduled_s = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        result = run(scheduled)
        t1 = time.perf_counter()
        with oracle_core():
            run(fixed)
        t2 = time.perf_counter()
        scheduled_s = min(scheduled_s, t1 - t0)
        fixed_s = min(fixed_s, t2 - t1)
    assert result.completions > 0
    ratio = scheduled_s / fixed_s
    with capsys.disabled():
        print(
            f"\n[scheduled floor] {len(workload.stream)} requests: "
            f"scheduled {scheduled_s:.4f}s, fixed {fixed_s:.4f}s "
            f"(ratio {ratio:.2f}, floor {SCHEDULED_FLOOR})"
        )
    assert ratio < SCHEDULED_FLOOR


#: Controlled/fixed time ratio the composed path must stay under.  This
#: test first measured 7.9-9.0 on a 2-CPU x86-64 Linux host, and the floor
#: is the top of that range plus 25% headroom.  With block release
#: decisions it measured 6.9-9.8 on a 2-CPU x86-64 Linux VM (11 runs,
#: alternated with 11 runs of the per-request scheduler at 6.6-10.3): the
#: ~0.03 s fixed side is too short for the ratio to resolve a 15% gain, so
#: the floor is kept.  The per-element P² feed and heap-based release flush
#: before that measured 17.1-18.3.  Since the serve loop moved to C, the
#: fixed side is timed with the Python oracle loop swapped in, as
#: calibrated (8 runs: 6.24-8.30, the controlled side on the compiled core).
#: With the P² fold compiled it measured 2.46-3.02 over 8 runs on a 2-CPU
#: x86-64 Linux VM, and 6.05-8.06 over 3 runs with the estimators forced
#: onto their Python loop; the floor was the top of the compiled range plus
#: 25% headroom, so a fold that falls back to Python trips it (3.8).  With
#: the release decisions compiled too it measured 1.44-2.05 over 8 runs on
#: the same host; the floor is again the top plus 25% headroom.  With the
#: rules forced onto their Python loops it measured 2.39-2.62 over 3 runs,
#: too close to the floor to trip reliably.  Neither the fold nor the
#: rules have a Python fallback any more, so this floor guards a slow-down
#: of the compiled P² fold and rules on the composed path, and
#: ``SCHEDULED_FLOOR`` the finer one of the rules alone.  With the span
#: binning and schedule rows of the controlled path compiled or built
#: from arrays it measured 1.06-1.28 over 8 runs on the same host (the
#: NumPy binner before it: 1.54-1.58 over 3 runs); the floor is the top
#: plus 25% headroom.  It would not trip on that NumPy binner, only on a
#: slower regression of the composed path.
CONTROLLED_FLOOR = 1.6


def test_controlled_scheduled_streaming_floor(capsys, oracle_core):
    """drpm4 + slo_feedback + slack_defer + streaming vs the fixed path,
    which serves through the Python oracle loop the floor was calibrated
    on (the controlled side runs the compiled core)."""
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=10_000.0, seed=5
        )
    )
    fixed = StorageConfig(num_disks=100, load_constraint=0.7, engine="fast")
    controlled = fixed.with_overrides(
        dpm_ladder="drpm4",
        dpm_policy="slo_feedback",
        slo_target=60.0,
        control_interval=500.0,
        scheduler="slack_defer",
        scheduler_params={"max_hold": 30.0},
        metrics_mode="streaming",
        chunk_size=16_384,
    )
    mapping = allocate(workload.catalog, "pack", fixed, 8.0).mapping(
        workload.catalog.n
    )

    def run(cfg):
        return StorageSystem(workload.catalog, mapping, cfg).run(
            workload.stream
        )

    # Interleaved best-of-N, so host drift hits both sides alike.
    fixed_s = controlled_s = math.inf
    for _ in range(5):
        with oracle_core():
            fixed_s = min(fixed_s, _timed(lambda: run(fixed), 1)[1])
        controlled_s = min(controlled_s, _timed(lambda: run(controlled), 1)[1])
    ratio = controlled_s / max(fixed_s, 1e-9)
    with capsys.disabled():
        print(
            f"\n[controlled floor] {len(workload.stream)} requests: fixed "
            f"{fixed_s:.4f}s, controlled {controlled_s:.4f}s "
            f"(ratio {ratio:.2f}, floor {CONTROLLED_FLOOR})"
        )
    assert ratio < CONTROLLED_FLOOR
