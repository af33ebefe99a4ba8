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

Interleaved timing: each round times every variant back to back, so a
slow patch of a shared CI runner penalizes all variants equally instead
of flipping the ratio.  The observer checks take the median of the
per-round ratios; the floors compare best-of-N times.
"""

import gc
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

#: Simulated seconds and arrival rate of the fast-kernel check.  At 150 s
#: and 40 req/s a bare run took about 1.3 ms on a 2-vCPU x86-64 host, so a
#: timer tick or a page fault moved the best-of-9 no-op ratio past 1.02 on
#: its own in 1 to 3 of 6 runs.  30,000 s at the canonical 8 req/s
#: (~240k requests, ~30 ms a run) over 21 rounds, compared round by round
#: (see ``_paired_ratio``), keeps such a stall to one round; at 40 req/s
#: a stream that long keeps every disk too busy to spin down, leaving the
#: traced run nothing to record.
FAST_MIN_DURATION = 30_000.0
FAST_ARRIVAL_RATE = 8.0

#: Active tracing is allowed to cost real time (it buffers every span),
#: but must stay within the same order of magnitude as the bare run.
TRACE_BOUND = 3.0


def _scenario(
    scale: float, min_duration: float = 150.0, arrival_rate: float = 40.0
):
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=1_500,
            arrival_rate=arrival_rate,
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
    """Interleaved wall times of every observer variant: ``rounds``
    rounds of one run each, returned as the last results and, per
    variant, the list of per-round seconds.

    Round ``r`` starts with variant ``r`` (mod the count), so every
    variant takes every position in a round equally often.  With ``collect`` each timed run
    starts from a collected heap: an event-engine run leaves its
    environment, drives and events behind as cyclic garbage, and the run
    that happens to trigger its collection would pay for it (the first
    variant of the first round never does).
    """
    times: list = [[] for _ in observers]
    results = [None] * len(observers)
    n = len(observers)
    for r in range(rounds):
        for i in ((r + j) % n for j in range(n)):
            if collect:
                gc.collect()
            t0 = time.perf_counter()
            results[i] = run(observers[i])
            times[i].append(max(time.perf_counter() - t0, 1e-9))
    return results, times


def _paired_ratio(times, base):
    """Median over rounds of ``times / base``, each round's two runs taken
    back to back.  This host's speed drifts by several percent from one
    second to the next, which moves a ratio of two best-ofs by as much;
    the runs of one round share the host's state, so their ratio does
    not drift."""
    return float(np.median(np.divide(times, base)))


def _check_overhead(engine, budget, rounds, scale, capsys):
    event = engine == "event"
    if event:
        workload, mapping, cfg = _scenario(scale, EVENT_MIN_DURATION)
    else:
        workload, mapping, cfg = _scenario(
            scale, FAST_MIN_DURATION, FAST_ARRIVAL_RATE
        )
    cfg = cfg.with_overrides(engine=engine)

    def run(observer):
        system = StorageSystem(workload.catalog, mapping, cfg)
        return system.run(workload.stream, observer=observer)

    recorder = TraceRecorder()
    (bare, noop, traced), (bare_t, noop_t, traced_t) = _timed_variants(
        run, [None, NULL_OBSERVER, recorder], rounds, collect=event
    )

    # The three runs are the same simulation, bit for bit.
    assert np.array_equal(bare.response_times, noop.response_times)
    assert np.array_equal(bare.response_times, traced.response_times)
    assert np.array_equal(bare.energy_per_disk, traced.energy_per_disk)
    assert recorder.state_spans  # tracing actually recorded the run

    noop_ratio = _paired_ratio(noop_t, bare_t)
    trace_ratio = _paired_ratio(traced_t, bare_t)
    with capsys.disabled():
        print(
            f"\n[obs-overhead:{engine}] bare {min(bare_t) * 1e3:.2f} ms, "
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
    _check_overhead(
        "fast", NOOP_BUDGET_FAST, rounds=21, scale=scale, capsys=capsys
    )


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
#: stay under.  Since write placement moved into the compiled walk (no
#: return to Python per new file, placements as column blocks), 10 runs
#: on a 2-CPU x86-64 Linux host measured 0.86-1.20; the floor is the top
#: of that range plus 25% headroom.  The fixed side is timed with the
#: Python oracle serve loop swapped in, as calibrated.  Earlier floors:
#: 4.03 (compiled cache walk, placement in Python: 2.48-3.22), 17.2
#: (Python walk: 9.3-13.7, and 9.12-11.24 once the fixed side took the
#: oracle loop); before that, with per-event observer calls, a three-call
#: eviction and NumPy-wrapper placement, 11.0-14.7, and with per-hook
#: registry counters, a per-element histogram loop and a per-policy
#: second eviction order, 13.7-21.9.
CACHED_TRACED_FLOOR = 1.50

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

    (_, recorder), times = _timed_variants(
        run, ["fixed", "cached"], rounds=7
    )
    fixed_s, cached_s = map(min, times)
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
    (bare, traced), times = _timed_variants(run, [None, recorder], rounds=7)
    bare_s, traced_s = map(min, times)
    assert np.array_equal(bare.response_times, traced.response_times)
    assert recorder.cache_events and recorder.placements
    ratio = traced_s / bare_s
    with capsys.disabled():
        print(
            f"\n[cached trace overhead] bare {bare_s:.4f}s, traced "
            f"{traced_s:.4f}s (ratio {ratio:.3f}, bound {CACHED_TRACE_BOUND})"
        )
    assert ratio < CACHED_TRACE_BOUND
