"""Bench: the discrete-event kernel and drive substrate throughput.

Not a paper figure — these establish that the simulation substrate is fast
enough for the full-scale experiments (hundreds of thousands of events per
second) and guard against regressions.  The largest cases pit the batched
fast kernel (``engine="fast"``) against the event kernel — on a Figure 2/4
style read-only scenario (>= 3x enforced) and on a shared-cache mixed
read/write scenario, where the walk also places writes and runs the
cache (>= 5x enforced) — and
the sweep case drives a grid through the orchestrator's caching.  The
event-engine floor bounds the other side: the event engine may take at
most a fixed multiple of the fast path's time on the same inputs, so a
slowdown of the oracle's run loop, timeouts or drive processes fails.
The compiled-core and writes floors bound fast-path variants against the
fixed read-only fast path: its Python oracle loop, and writes placed on
first touch without a cache.
"""

import math
import time

import numpy as np
import pytest

from repro.disk import DiskDrive, ST3500630AS
from repro.experiments.orchestrator import SimTask, SweepRunner
from repro.sim import Environment
from repro.system import StorageConfig, StorageSystem, allocate
from repro.units import GiB, MB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedWorkloadParams, generate_mixed_workload


def test_event_loop_throughput(benchmark):
    """Ping-pong processes: ~100k event dispatches."""

    def run():
        env = Environment()

        def ticker(env, n):
            for _ in range(n):
                yield env.timeout(1.0)

        for _ in range(10):
            env.process(ticker(env, 5_000))
        env.run()
        return env.now

    assert benchmark(run) == 5_000.0


def test_drive_request_throughput(benchmark):
    """One drive serving 5k requests with idle gaps and spin cycles."""
    rng = np.random.default_rng(2)
    gaps = rng.exponential(10.0, size=5_000)

    def run():
        env = Environment()
        drive = DiskDrive(env, ST3500630AS, idleness_threshold=20.0)

        def feeder(env):
            for gap in gaps:
                yield env.timeout(gap)
                drive.submit(0, 36 * MB)

        env.process(feeder(env))
        env.run()
        return drive.stats.completions

    assert benchmark(run) == 5_000


def test_fast_engine_speedup(scale, capsys):
    """Largest case: both kernels on a Fig 2/4-style run; fast must win 3x."""
    params = SyntheticWorkloadParams(
        n_files=8_000,
        arrival_rate=8.0,
        duration=max(600.0, 4_000.0 * scale),
        seed=7,
    )
    workload = generate_workload(params)
    cfg = StorageConfig(num_disks=100, load_constraint=0.7)
    mapping = allocate(workload.catalog, "pack", cfg, 8.0).mapping(
        workload.catalog.n
    )

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
    with capsys.disabled():
        print(
            f"\n[kernel] {len(workload.stream)} requests: "
            f"event {event_s:.3f}s, fast {fast_s:.4f}s "
            f"({event_s / fast_s:.1f}x speedup)"
        )
    assert event_s >= 3.0 * fast_s


def test_fast_engine_speedup_cached_mixed(capsys):
    """A shared cache plus writes; fast must win 5x.

    The stream is a fixed 4,000 s (about 32k requests) at any bench scale,
    so the fast side runs for about 0.1 s, and the engines are timed
    interleaved (best-of-5).  On a 600 s stream the fast side took ~20 ms
    and host noise alone moved the ratio between 4.4x and 8.9x.
    """
    base = generate_workload(
        SyntheticWorkloadParams(
            n_files=4_000, arrival_rate=6.0, duration=4_000.0, seed=7
        )
    )
    catalog, stream = generate_mixed_workload(
        base.catalog,
        MixedWorkloadParams(
            write_fraction=0.2,
            new_file_fraction=0.3,
            arrival_rate=8.0,
            duration=4_000.0,
            seed=11,
        ),
    )
    cfg = StorageConfig(
        num_disks=100,
        load_constraint=0.7,
        cache_policy="lru",
        cache_capacity=16 * GiB,
    )
    alloc = allocate(base.catalog, "pack", cfg, 8.0)
    mapping = np.concatenate(
        [
            alloc.mapping(base.catalog.n),
            np.full(catalog.n - base.catalog.n, -1, dtype=np.int64),
        ]
    )

    def run_engine(engine):
        system = StorageSystem(catalog, mapping, cfg.with_overrides(engine=engine))
        return system.run(stream)

    # Interleaved, so host drift hits both engines alike.
    event_s = fast_s = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        event = run_engine("event")
        t1 = time.perf_counter()
        fast = run_engine("fast")
        t2 = time.perf_counter()
        event_s = min(event_s, t1 - t0)
        fast_s = min(fast_s, t2 - t1)

    assert fast.energy == pytest.approx(event.energy, rel=1e-6)
    assert fast.mean_response == pytest.approx(event.mean_response, rel=1e-6)
    assert fast.spinups == event.spinups
    assert fast.completions == event.completions
    assert fast.cache_stats.hits == event.cache_stats.hits
    assert fast.cache_stats.hit_ratio == pytest.approx(
        event.cache_stats.hit_ratio, rel=1e-9
    )
    with capsys.disabled():
        print(
            f"\n[kernel/cached-mixed] {len(stream)} requests "
            f"(hit ratio {event.cache_stats.hit_ratio:.3f}): "
            f"event {event_s:.3f}s, fast {fast_s:.4f}s "
            f"({event_s / fast_s:.1f}x speedup)"
        )
    assert event_s >= 5.0 * fast_s


def test_orchestrated_sweep_throughput(scale, capsys):
    """A rate x load grid through the SweepRunner: cold pass vs cached."""
    cfg = StorageConfig(num_disks=100)
    tasks = [
        SimTask(
            label=f"pack R={rate:g} L={load:g}",
            workload=SyntheticWorkloadParams(
                n_files=2_000,
                arrival_rate=rate,
                duration=max(300.0, 2_000.0 * scale),
                seed=11,
            ),
            config=cfg.with_overrides(load_constraint=load),
            policy="pack",
            arrival_rate=rate,
            num_disks=100,
            key=(rate, load),
        )
        for rate in (2.0, 6.0)
        for load in (0.5, 0.7, 0.9)
    ]
    runner = SweepRunner(max_workers=1, engine="fast")
    t0 = time.perf_counter()
    cold = runner.run_map(tasks)
    t1 = time.perf_counter()
    runner.run_map(tasks)
    t2 = time.perf_counter()

    # ``runner.stats`` covers only the latest run; the history keeps both.
    cold_stats, cached_stats = runner.history
    assert cold_stats.executed == len(tasks)
    assert cached_stats.executed == 0
    assert cached_stats.cached == len(tasks)
    assert all(r.completions > 0 for r in cold.values())
    with capsys.disabled():
        print(
            f"\n[sweep] {len(tasks)} points: cold {t1 - t0:.2f}s, "
            f"cached {t2 - t1:.4f}s"
        )
    assert t2 - t1 < t1 - t0


#: Event/fast time ratio the event engine must stay under on the same
#: inputs.  Over 6 runs on a 2-CPU x86-64 Linux host this test measured
#: 39.3-44.4; the floor is the top of that range plus 25% headroom.  With
#: a ``step()`` call per event, timeouts built through ``env.timeout`` and
#: the drives' per-request attribute and property lookups it measured
#: 49.7-60.9 (median 58.1, 7 runs) on the same host.  Since the serve loop
#: moved to C, the fast side runs with the Python oracle loop swapped in,
#: so the ratio keeps its calibration (8 runs: 32.3-39.5); against the
#: compiled run it is about 4.5x higher (see ``COMPILED_FLOOR``).
EVENT_ENGINE_FLOOR = 55.0


def test_event_engine_floor(capsys, oracle_core):
    """The event engine vs the fixed fast path on one read-only stream,
    timed on the same machine (interleaved best-of-N).  The fast side
    serves through the Python oracle loop the floor was calibrated on
    (``COMPILED_FLOOR`` bounds the compiled core against it)."""
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=4_000.0, seed=5
        )
    )
    cfg = StorageConfig(num_disks=100, load_constraint=0.7)
    mapping = allocate(workload.catalog, "pack", cfg, 8.0).mapping(
        workload.catalog.n
    )

    def run(engine):
        system = StorageSystem(
            workload.catalog, mapping, cfg.with_overrides(engine=engine)
        )
        return system.run(workload.stream)

    # Interleaved, so host drift hits both engines alike.
    event_s = fast_s = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        event = run("event")
        t1 = time.perf_counter()
        with oracle_core():
            fast = run("fast")
        t2 = time.perf_counter()
        event_s = min(event_s, t1 - t0)
        fast_s = min(fast_s, t2 - t1)
    assert fast.energy == pytest.approx(event.energy, rel=1e-9)
    assert fast.completions == event.completions
    ratio = event_s / max(fast_s, 1e-9)
    with capsys.disabled():
        print(
            f"\n[event floor] {len(workload.stream)} requests: event "
            f"{event_s:.3f}s, fast {fast_s:.4f}s "
            f"(ratio {ratio:.1f}, floor {EVENT_ENGINE_FLOOR})"
        )
    assert ratio < EVENT_ENGINE_FLOOR


#: Compiled/oracle time ratio of the fixed fast path: the run with the
#: compiled serve core (``repro.native``) vs the same run with the
#: pure-Python loop it replaced swapped in, with the NumPy completion
#: formula and service accounting the walk took over.  Over 8 runs on a
#: 2-CPU x86-64 Linux host this test measured 0.180-0.265 (0.373-0.419
#: before the walk wrote completions, billed service and the completion
#: order went to the compiled bucket sort); the floor is the top of that
#: range plus 25% headroom.
COMPILED_FLOOR = 0.33


def test_compiled_core_floor(capsys, oracle_core):
    """The fixed fast path on the compiled core vs on the Python oracle
    loop, on the canonical 4,000 s stream (8,000 files from the catalog
    seed perfbench derives from its seed 0, R = 8 req/s, L = 0.7), timed
    on the same machine (interleaved best-of-7)."""
    seed = int(np.random.SeedSequence(0).generate_state(2)[0])
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=4_000.0, seed=seed
        )
    )
    cfg = StorageConfig(num_disks=100, load_constraint=0.7, engine="fast")
    mapping = allocate(workload.catalog, "pack", cfg, 8.0).mapping(
        workload.catalog.n
    )

    def run():
        return StorageSystem(workload.catalog, mapping, cfg).run(
            workload.stream
        )

    # Interleaved, so host drift hits both sides alike.
    compiled_s = oracle_s = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        compiled = run()
        t1 = time.perf_counter()
        with oracle_core():
            python = run()
        t2 = time.perf_counter()
        compiled_s = min(compiled_s, t1 - t0)
        oracle_s = min(oracle_s, t2 - t1)
    assert compiled.response_times.tobytes() == python.response_times.tobytes()
    ratio = compiled_s / oracle_s
    with capsys.disabled():
        print(
            f"\n[compiled floor] {len(workload.stream)} requests: compiled "
            f"{compiled_s:.4f}s, oracle {oracle_s:.4f}s "
            f"(ratio {ratio:.3f}, floor {COMPILED_FLOOR})"
        )
    assert ratio < COMPILED_FLOOR


#: Writes / fixed read-only per-request time ratio of the fast path
#: without a cache: a stream with 20% writes, 30% of them to new files
#: placed on first touch (the paper's §1.1 ``spinning_best_fit``), vs the
#: read-only stream, both at R = 8 req/s over 4,000 s of the canonical
#: catalog.  With placement inside the compiled walk, 10 runs on a 2-CPU
#: x86-64 Linux host measured 1.20-1.37; the floor is the top of that
#: range plus 25% headroom.  The earlier floor, with the walk stopping in
#: Python at every new file, was 7.36 (4.41-5.89 over 8 runs).
WRITES_FLOOR = 1.71


def test_writes_floor(capsys):
    """The cache-less write path (placements inside the compiled walk) vs
    the fixed read-only path, per request, timed on the same machine
    (interleaved best-of-7)."""
    seed = int(np.random.SeedSequence(0).generate_state(2)[0])
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=4_000.0, seed=seed
        )
    )
    catalog, mixed = generate_mixed_workload(
        workload.catalog,
        MixedWorkloadParams(
            write_fraction=0.2, new_file_fraction=0.3, arrival_rate=8.0,
            duration=4_000.0, seed=seed + 1,
        ),
    )
    cfg = StorageConfig(num_disks=100, load_constraint=0.7, engine="fast")
    mapping = allocate(workload.catalog, "pack", cfg, 8.0).mapping(catalog.n)

    def run(stream):
        return StorageSystem(catalog, mapping, cfg).run(stream)

    # Interleaved, so host drift hits both sides alike.
    fixed_s = writes_s = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        run(workload.stream)
        t1 = time.perf_counter()
        writes = run(mixed)
        t2 = time.perf_counter()
        fixed_s = min(fixed_s, t1 - t0)
        writes_s = min(writes_s, t2 - t1)
    assert (writes.final_mapping[workload.catalog.n :] >= 0).any()
    ratio = (writes_s / len(mixed)) / (fixed_s / len(workload.stream))
    with capsys.disabled():
        print(
            f"\n[writes floor] {len(mixed)} vs {len(workload.stream)} "
            f"requests: fixed {fixed_s:.4f}s, writes {writes_s:.4f}s "
            f"(per-request ratio {ratio:.2f}, floor {WRITES_FLOOR})"
        )
    assert ratio < WRITES_FLOOR
