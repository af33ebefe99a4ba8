"""Bench: the SLO-frontier grid and the controlled fast kernel's speed.

Guards three properties of the online DPM control subsystem:

* **controlled-kernel speedup** — under interval-segmented control (a
  dynamic DPM policy, per-interval threshold vectors, telemetry feeds at
  every boundary) the fast kernel must still beat the event engine by
  >= 5x while agreeing on the physics;
* **controlled-kernel floor** — a controlled full-metrics fast run may
  take at most a fixed multiple of a fixed-threshold fast run on the same
  stream, so a slowdown of the fast kernel's control path fails even
  where the event engine is slow enough to hide it from the ratio above;
* **grid plumbing** — the ``slo_frontier`` experiment's grid dispatches
  through the shared orchestrator with DPM-salted fingerprints (every
  (policy, rate, threshold/target) point distinct, nothing deduplicated
  away) and replays from the disk cache.
"""

import math
import time

import numpy as np
import pytest

from repro.experiments.orchestrator import SweepRunner
from repro.experiments.slo_frontier import build_tasks
from repro.system import StorageConfig, StorageSystem, allocate
from repro.units import MB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload


def test_fast_engine_speedup_under_control(scale, capsys):
    """Interval-segmented control: fast must win 5x over the event engine."""
    duration = max(800.0, 4_000.0 * scale)
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=6_000,
            arrival_rate=6.0,
            duration=duration,
            seed=7,
            s_max=500 * MB,
            s_min=20 * MB,
        )
    )
    cfg = StorageConfig(
        num_disks=100,
        load_constraint=0.6,
        dpm_policy="slo_feedback",
        slo_target=18.0,
        control_interval=max(50.0, duration / 10.0),
    )
    mapping = allocate(
        workload.catalog, "round_robin", cfg, 6.0, num_disks=100
    ).mapping(workload.catalog.n)

    def run_engine(engine):
        system = StorageSystem(
            workload.catalog, mapping, cfg.with_overrides(engine=engine)
        )
        return system.run(workload.stream)

    def timed(engine, rounds):
        best = math.inf
        result = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = run_engine(engine)
            best = min(best, time.perf_counter() - t0)
        return result, best

    # Best-of-N so a scheduling hiccup on a shared CI runner cannot flip
    # the speedup assertion (the fast run is only milliseconds long).
    event, event_s = timed("event", rounds=2)
    fast, fast_s = timed("fast", rounds=5)
    fast_s = max(fast_s, 1e-9)

    assert fast.energy == pytest.approx(event.energy, rel=1e-6)
    assert fast.mean_response == pytest.approx(event.mean_response, rel=1e-6)
    assert fast.spinups == event.spinups
    assert fast.completions == event.completions
    # The controller walked the same trajectory on both engines.
    assert (
        fast.extra["dpm"]["thresholds"] == event.extra["dpm"]["thresholds"]
    )
    with capsys.disabled():
        print(
            f"\n[slo-control] {len(workload.stream)} requests, "
            f"{len(fast.extra['dpm']['t_end'])} control intervals: "
            f"event {event_s:.3f}s, fast {fast_s:.4f}s "
            f"({event_s / fast_s:.1f}x speedup)"
        )
    assert event_s >= 5.0 * fast_s


#: controlled/fixed fast-run time ratio that the controlled full-metrics
#: path must stay under.  The fixed side serves through the Python oracle
#: loop (``oracle_core``), like the other same-machine floors.  Over 9 runs
#: on a 2-CPU x86-64 Linux host, before the fast kernel's run became one
#: object, this test measured 3.34-4.16; the floor is the top of that
#: range plus 25% headroom (8 runs after it: 3.24-4.28).  With the P² fold
#: compiled it measured 1.86-2.45 over 8 runs on the same host, and
#: 3.54-4.42 over 3 runs with the estimators forced onto their Python loop;
#: the floor was the top of the compiled range plus 25% headroom, so a fold
#: that falls back to Python trips it (3.1).  Re-measured over 16 runs on
#: the same host: 1.87-2.52, median 1.98.  The floor is the top plus 15%,
#: still below the Python-fold range.  The fold no longer has a Python
#: fallback, so what the floor guards now is a slow-down of the compiled
#: fold itself.  With the span binning compiled too it measured 1.16-1.28
#: over 8 runs on the same host (the NumPy binner before it: 1.94-2.00
#: over 3 runs); the floor is the top plus 25%, so it also guards the
#: compiled binner.
CONTROLLED_FULL_FLOOR = 1.6


def test_controlled_full_metrics_floor(capsys, oracle_core):
    """A fast ``slo_feedback`` run in full metrics mode vs a fast fixed
    run on the canonical 4,000 s stream (8,000 files from the catalog
    seed perfbench derives from its seed 0, R = 8 req/s, L = 0.7), timed
    on the same machine (interleaved best-of-7)."""
    seed = int(np.random.SeedSequence(0).generate_state(2)[0])
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=4_000.0, seed=seed
        )
    )
    fixed_cfg = StorageConfig(
        num_disks=100, load_constraint=0.7, engine="fast"
    )
    controlled_cfg = fixed_cfg.with_overrides(
        dpm_policy="slo_feedback", slo_target=60.0, control_interval=200.0
    )
    mapping = allocate(workload.catalog, "pack", fixed_cfg, 8.0).mapping(
        workload.catalog.n
    )

    def run(cfg):
        return StorageSystem(workload.catalog, mapping, cfg).run(
            workload.stream
        )

    # Interleaved, so host drift hits both sides alike.
    controlled_s = fixed_s = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        controlled = run(controlled_cfg)
        t1 = time.perf_counter()
        with oracle_core():
            fixed = run(fixed_cfg)
        t2 = time.perf_counter()
        controlled_s = min(controlled_s, t1 - t0)
        fixed_s = min(fixed_s, t2 - t1)
    assert len(controlled.extra["dpm"]["t_end"]) == 20
    assert controlled.response_times.size == controlled.completions > 0
    assert fixed.completions > 0
    ratio = controlled_s / fixed_s
    with capsys.disabled():
        print(
            f"\n[controlled full floor] {len(workload.stream)} requests: "
            f"controlled {controlled_s:.4f}s, fixed {fixed_s:.4f}s "
            f"(ratio {ratio:.2f}, floor {CONTROLLED_FULL_FLOOR})"
        )
    assert ratio < CONTROLLED_FULL_FLOOR


def test_frontier_grid_through_sweep_runner_disk_cache(scale, tmp_path, capsys):
    tasks = build_tasks(
        scale=max(0.05, scale / 2),
        seed=20090607,
        rates=(1.0,),
        static_thresholds=(15.0, 60.0, 240.0),
        slo_targets=(12.0, 18.0),
        dynamic_policies=("adaptive_timeout", "exponential_predictive"),
        num_disks=100,
        load_constraint=0.6,
    )
    cache_dir = tmp_path / "sweeps"

    cold = SweepRunner(max_workers=1, engine="fast", cache_dir=cache_dir)
    t0 = time.perf_counter()
    by_key = cold.run_map(tasks)
    cold_s = time.perf_counter() - t0
    # DPM-salted fingerprints: every grid point is its own simulation.
    assert cold.stats.executed == len(tasks) == 7
    assert cold.stats.deduplicated == 0
    assert all(r.completions > 0 for r in by_key.values())

    warm = SweepRunner(max_workers=1, engine="fast", cache_dir=cache_dir)
    t0 = time.perf_counter()
    warm_map = warm.run_map(tasks)
    warm_s = max(time.perf_counter() - t0, 1e-9)
    assert warm.stats.executed == 0
    assert warm.stats.cached == len(tasks)
    for key, res in warm_map.items():
        assert res.energy == by_key[key].energy
    with capsys.disabled():
        print(
            f"\n[slo-frontier] {len(tasks)} grid points: cold {cold_s:.2f}s, "
            f"warm {warm_s:.3f}s"
        )
