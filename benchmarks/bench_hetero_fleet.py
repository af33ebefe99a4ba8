"""Bench (extension): heterogeneous fleets through the fast kernel.

Per-disk spec vectors must not erase the batched kernel's advantage:
``StorageConfig(fleet=...)`` turns every scalar in the banks (transfer
rate, access overhead, spin times, power draws, thresholds) into a
per-disk vector, and this bench guards that a mixed-generation pool —
with and without per-slot DPM ladders — still beats the event engine
>= 5x while agreeing to 1e-9, and stays within ``FLEET_FLOOR`` of a
uniform pool's fast run on the same stream.
"""

import math
import time

import numpy as np
import pytest

from repro.disk.fleet import Fleet, FleetDisk
from repro.disk.specs import ST3500630AS, WD10EADS
from repro.system import StorageConfig, StorageSystem, allocate
from repro.workload.generator import SyntheticWorkloadParams, generate_workload

#: Per-slot ladders and thresholds: the Seagate runs the 4-rung DRPM
#: ladder, the green drive stays two-state (ladder backfill) with an
#: aggressive per-slot threshold — the maximally mixed kernel path
#: (per-group ladder assembly + per-disk threshold vectors).
TIERED = Fleet(
    "tiered",
    (
        FleetDisk(ST3500630AS, ladder="drpm4"),
        FleetDisk(WD10EADS, threshold=30.0),
    ),
)

FLEETS = {"mixed_generation": "mixed_generation", "tiered_ladders": TIERED}


def _timed(run, rounds):
    best = math.inf
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    return result, best


@pytest.mark.parametrize("fleet_name", sorted(FLEETS))
def test_fast_engine_speedup_hetero_fleet(scale, capsys, fleet_name):
    """Mixed-fleet runs: the fast kernel must win >= 5x over the event
    engine with per-disk spec (and ladder) vectors, agreeing to 1e-9."""
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=5_000,
            arrival_rate=6.0,
            duration=max(800.0, 4_000.0 * scale),
            seed=11,
        )
    )
    cfg = StorageConfig(
        num_disks=100,
        load_constraint=0.7,
        fleet=FLEETS[fleet_name],
    )
    # Packing normalizes by the representative (smallest, disk-0 Seagate)
    # capacity, so every bin fits every drive of the mixed pool.
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
    assert event.spindowns > 0  # the mixed pool exercises spin transitions
    with capsys.disabled():
        print(
            f"\n[fleet/{fleet_name}] {len(workload.stream)} requests: "
            f"event {event_s:.3f}s, fast {fast_s:.4f}s "
            f"({event_s / fast_s:.1f}x speedup)"
        )
    assert event_s >= 5.0 * fast_s


#: Fleet/uniform fixed fast-run time ratio that each fleet's run must stay
#: under.  Over 8 runs on a 2-CPU x86-64 Linux host this test measured
#: 1.24-1.43 (``mixed_generation``) and 2.88-3.35 (``tiered_ladders``,
#: most of whose extra time was resolving a ladder per disk); each floor is
#: the top of its range plus 25% headroom.  Since ``Fleet.resolve`` builds
#: one ladder per (preset, spec) pair, 8 runs measured 1.23-1.35 and
#: 1.35-1.54, and the tiered floor moved from 4.2 to the new top plus 25%.
#: Both sides run the compiled serve core.
FLEET_FLOOR = {"mixed_generation": 1.8, "tiered_ladders": 1.95}


@pytest.mark.parametrize("fleet_name", sorted(FLEETS))
def test_fleet_floor(capsys, fleet_name):
    """A fast mixed-fleet run vs a fast run of a uniform pool of the
    paper's disk (fixed threshold) on the canonical 4,000 s stream (8,000
    files from the catalog seed perfbench derives from its seed 0, R = 8
    req/s, L = 0.7) and one mapping, timed on the same machine
    (interleaved best-of-7).  The event/fast ratio guard above cannot see
    a fast-kernel regression; this floor can."""
    seed = int(np.random.SeedSequence(0).generate_state(2)[0])
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=4_000.0, seed=seed
        )
    )
    uniform_cfg = StorageConfig(
        num_disks=100, load_constraint=0.7, engine="fast"
    )
    fleet_cfg = uniform_cfg.with_overrides(fleet=FLEETS[fleet_name])
    # Packed for the fleet: its bins fit every drive of both pools.
    mapping = allocate(workload.catalog, "pack", fleet_cfg, 8.0).mapping(
        workload.catalog.n
    )

    def run(cfg):
        return StorageSystem(workload.catalog, mapping, cfg).run(
            workload.stream
        )

    # Interleaved, so host drift hits both sides alike.
    fleet_s = uniform_s = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        fleet = run(fleet_cfg)
        t1 = time.perf_counter()
        uniform = run(uniform_cfg)
        t2 = time.perf_counter()
        fleet_s = min(fleet_s, t1 - t0)
        uniform_s = min(uniform_s, t2 - t1)
    assert fleet.arrivals == uniform.arrivals
    assert fleet.spindowns > 0 and uniform.spindowns > 0
    ratio = fleet_s / uniform_s
    with capsys.disabled():
        print(
            f"\n[fleet floor/{fleet_name}] {len(workload.stream)} requests: "
            f"fleet {fleet_s:.4f}s, uniform {uniform_s:.4f}s "
            f"(ratio {ratio:.2f}, floor {FLEET_FLOOR[fleet_name]})"
        )
    assert ratio < FLEET_FLOOR[fleet_name]
