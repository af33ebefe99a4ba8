"""Bench: observer overhead on the simulation hot paths.

The observability contract (see ``repro.obs.hooks``) promises that an
absent or disabled observer leaves the kernels' hot loops untouched:
``active_observer`` normalizes both to ``None`` up front, so the observed
branches never execute.  This bench enforces that promise as a budget —
the no-op-observer run must stay within **2%** of the bare run — and
keeps an *active* ``TraceRecorder`` within a loose sanity bound so the
emission paths cannot quietly become pathological.  A same-machine
floor also holds the shared-cache path with writes and a
``TraceRecorder`` to a fixed multiple of the fixed read-only path, and
bounds what the ``TraceRecorder`` itself costs on that path.

Interleaved best-of-N timing: each round times every variant back to
back, so a slow patch of a shared CI runner penalizes all variants
equally instead of flipping the ratio.
"""

import gc
import math
import time

import numpy as np

from repro.obs.hooks import NULL_OBSERVER
from repro.obs.trace import TraceRecorder
from repro.system import StorageConfig, StorageSystem, allocate
from repro.units import GiB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedWorkloadParams, generate_mixed_workload

#: The stated budget: a no-op observer costs at most 2% on the fast
#: kernel.  The event engine's per-run wall time is ~100x longer and
#: dominated by event dispatch, so the same identical-code-path claim is
#: checked there under a noise-tolerant bound instead.
NOOP_BUDGET_FAST = 1.02
NOOP_BUDGET_EVENT = 1.15

#: Simulated seconds the event-engine check runs at least.  At 150 s a
#: run took ~35-55 ms on a 2-vCPU x86-64 host, short enough that one
#: scheduler hiccup during a full benchmark session moved the best-of-7
#: no-op ratio to 1.65x; 600 s (~24k requests, ~0.2 s a run) over 15
#: rounds leaves such a stall a smaller share of every variant's best.
EVENT_MIN_DURATION = 600.0

#: Active tracing is allowed to cost real time (it buffers every span),
#: but must stay within the same order of magnitude as the bare run.
TRACE_BOUND = 3.0


def _scenario(scale: float, min_duration: float = 150.0):
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=1_500,
            arrival_rate=40.0,
            duration=max(min_duration, 600.0 * scale),
            seed=21,
        )
    )
    num_disks = 24
    mapping = np.arange(workload.catalog.n, dtype=np.int64) % num_disks
    cfg = StorageConfig(
        num_disks=num_disks, load_constraint=0.7, idleness_threshold=5.0
    )
    return workload, mapping, cfg


def _timed_variants(run, observers, rounds, collect=False):
    """Interleaved best-of-``rounds`` wall time per observer variant.

    With ``collect`` each timed run starts from a collected heap: an
    event-engine run leaves its environment, drives and events behind as
    cyclic garbage, and the run that happens to trigger its collection
    would pay for it (the first variant of the first round never does).
    """
    best = [math.inf] * len(observers)
    results = [None] * len(observers)
    for _ in range(rounds):
        for i, observer in enumerate(observers):
            if collect:
                gc.collect()
            t0 = time.perf_counter()
            results[i] = run(observer)
            best[i] = min(best[i], time.perf_counter() - t0)
    return results, [max(b, 1e-9) for b in best]


def _check_overhead(engine, budget, rounds, scale, capsys):
    event = engine == "event"
    workload, mapping, cfg = _scenario(
        scale, EVENT_MIN_DURATION if event else 150.0
    )
    cfg = cfg.with_overrides(engine=engine)

    def run(observer):
        system = StorageSystem(workload.catalog, mapping, cfg)
        return system.run(workload.stream, observer=observer)

    recorder = TraceRecorder()
    (bare, noop, traced), (bare_s, noop_s, traced_s) = _timed_variants(
        run, [None, NULL_OBSERVER, recorder], rounds, collect=event
    )

    # The three runs are the same simulation, bit for bit.
    assert np.array_equal(bare.response_times, noop.response_times)
    assert np.array_equal(bare.response_times, traced.response_times)
    assert np.array_equal(bare.energy_per_disk, traced.energy_per_disk)
    assert recorder.state_spans  # tracing actually recorded the run

    noop_ratio = noop_s / bare_s
    trace_ratio = traced_s / bare_s
    with capsys.disabled():
        print(
            f"\n[obs-overhead:{engine}] bare {bare_s * 1e3:.2f} ms, "
            f"noop {noop_ratio:.3f}x (budget {budget:.2f}x), "
            f"traced {trace_ratio:.2f}x (bound {TRACE_BOUND:.1f}x)"
        )
    assert noop_ratio <= budget, (
        f"no-op observer costs {noop_ratio:.3f}x on the {engine} engine "
        f"(budget {budget:.2f}x) — a hot path stopped honoring "
        f"active_observer()"
    )
    assert trace_ratio <= TRACE_BOUND


def test_noop_observer_overhead_fast(scale, capsys):
    """Fast kernel: the no-op observer must cost <= 2%."""
    _check_overhead("fast", NOOP_BUDGET_FAST, rounds=9, scale=scale, capsys=capsys)


def test_noop_observer_overhead_event(scale, capsys):
    """Event engine: same identical-code-path claim, noise-tolerant bound."""
    _check_overhead(
        "event", NOOP_BUDGET_EVENT, rounds=15, scale=scale, capsys=capsys
    )


def test_disabled_observer_is_normalized_away():
    """The 2% budget is structural: a disabled observer becomes ``None``
    before the kernels ever see it, so the hot loops take their original
    branches (this is what the timing budget above is enforcing)."""
    from repro.obs.hooks import active_observer

    assert active_observer(NULL_OBSERVER) is None
    recorder = TraceRecorder()
    recorder.enabled = False
    assert active_observer(recorder) is None


#: Cached + traced / fixed read-only time ratio the shared-cache path must
#: stay under.  Since the shared-cache walk moved to C (one compiled walk
#: per batch, cache events as column blocks), 12 runs on a 2-CPU x86-64
#: Linux host measured 2.48-3.22 (the Python walk before it measured
#: 10.2-13.0 in 6 of them, interleaved); the floor is the top of that
#: range plus 25% headroom.  The fixed side is timed with the Python
#: oracle serve loop swapped in, as calibrated.  Earlier floors: 17.2
#: (Python walk: 9.3-13.7, and 9.12-11.24 once the fixed side took the
#: oracle loop); before that, with per-event observer calls, a three-call
#: eviction and NumPy-wrapper placement, 11.0-14.7, and with per-hook
#: registry counters, a per-element histogram loop and a per-policy
#: second eviction order, 13.7-21.9.
CACHED_TRACED_FLOOR = 4.03

#: Traced / bare time ratio on the same cached mixed stream.  Over 10
#: runs on the same host it measured 1.18-1.54; the bound is the top of
#: that range plus 25% headroom.  With cache events as column blocks it
#: measured 1.01-1.14 (6 runs; the Python walk 1.08-1.58 in the same
#: interleaved session).
CACHED_TRACE_BOUND = 1.93


def _cached_scenario():
    """perfbench's ``mixed_cached_traced`` at a 10,000 s horizon: a shared
    LRU cache and writes placed on spinning disks, beside the fixed
    read-only config on the same catalog."""
    horizon = 10_000.0
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=horizon, seed=5
        )
    )
    catalog, mixed = generate_mixed_workload(
        workload.catalog,
        MixedWorkloadParams(
            write_fraction=0.2, new_file_fraction=0.3, arrival_rate=8.0,
            duration=horizon, seed=6,
        ),
    )
    fixed = StorageConfig(num_disks=100, load_constraint=0.7, engine="fast")
    cached = fixed.with_overrides(
        cache_policy="lru",
        cache_capacity=512 * GiB,
        write_policy="spinning_worst_fit",
    )
    mapping = allocate(workload.catalog, "pack", fixed, 8.0).mapping(catalog.n)
    return workload, catalog, mixed, mapping, fixed, cached


def test_cached_traced_floor(capsys, oracle_core):
    """A shared LRU cache, writes placed on spinning disks and a
    ``TraceRecorder`` (perfbench's ``mixed_cached_traced``) vs the fixed
    read-only path on the same catalog, timed on the same machine.  The
    fixed path serves through the Python oracle loop the floor was
    calibrated on."""
    workload, catalog, mixed, mapping, fixed, cached = _cached_scenario()

    def run(variant):
        if variant == "fixed":
            with oracle_core():
                return StorageSystem(catalog, mapping, fixed).run(
                    workload.stream
                )
        recorder = TraceRecorder()
        StorageSystem(catalog, mapping, cached).run(mixed, observer=recorder)
        return recorder

    (_, recorder), (fixed_s, cached_s) = _timed_variants(
        run, ["fixed", "cached"], rounds=7
    )
    assert recorder.cache_events and recorder.placements
    ratio = cached_s / fixed_s
    with capsys.disabled():
        print(
            f"\n[cached+traced floor] {len(mixed)} vs {len(workload.stream)} "
            f"requests: fixed {fixed_s:.4f}s, cached+traced {cached_s:.4f}s "
            f"(ratio {ratio:.2f}, floor {CACHED_TRACED_FLOOR})"
        )
    assert ratio < CACHED_TRACED_FLOOR


def test_cached_trace_overhead(capsys):
    """What a ``TraceRecorder`` costs on the shared-cache path: the traced
    run vs the bare run of the same cached mixed stream."""
    _, catalog, mixed, mapping, _, cached = _cached_scenario()

    def run(observer):
        system = StorageSystem(catalog, mapping, cached)
        return system.run(mixed, observer=observer)

    recorder = TraceRecorder()
    (bare, traced), (bare_s, traced_s) = _timed_variants(
        run, [None, recorder], rounds=7
    )
    assert np.array_equal(bare.response_times, traced.response_times)
    assert recorder.cache_events and recorder.placements
    ratio = traced_s / bare_s
    with capsys.disabled():
        print(
            f"\n[cached trace overhead] bare {bare_s:.4f}s, traced "
            f"{traced_s:.4f}s (ratio {ratio:.3f}, bound {CACHED_TRACE_BOUND})"
        )
    assert ratio < CACHED_TRACE_BOUND
