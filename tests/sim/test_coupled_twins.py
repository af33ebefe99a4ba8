"""The compiled shared-cache walk against the Python oracle pass.

``fastkernel._serve_coupled`` walks a cached batch in one C call: pending
admissions drained before each arrival, the cache looked up in per-file-id
arrays (LRU, FIFO, CLOCK, LFU), misses and writes served through the
per-request step.  ``serve_oracle.serve_coupled`` is the Python pass it
replaced, driving the cache object's own ``lookup``/``admit``.  Both run
on twin banks and twin caches, batch by batch, and must agree bit for
bit: starts, serving disks, bank arrays, gap logs and spans, the mapping
and free bytes after placements, ``CacheStats``, the final cache object
(resident order, ``used``, CLOCK bits, LFU frequencies, snapshot heap and
sequence counter), cache events and placements.

Times, sizes and the disk's overhead and transfer rate sit on a grid of
0.25 s, so completions land exactly on arrivals (the admission goes
first) and on the horizon (never admitted).  Whole runs with the oracle
swapped in cover the chunked, controlled and scheduled batch drivers.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import serve_oracle as oracle
import repro.sim.fastkernel as fastkernel
from repro.cache import ClockCache, LFUCache, LRUCache, make_cache
from repro.cache.base import BaseCache
from repro.disk.dpm import make_dpm_ladder
from repro.disk.specs import ST3500630AS
from repro.errors import ConfigError, SimulationError
from repro.obs.hooks import CacheEventBlock
from repro.obs.trace import TraceRecorder
from repro.sim.fastkernel import (
    _admit_pending,
    _CacheState,
    _DiskBank,
    _serve_coupled,
    simulate_fast,
)
from repro.system import StorageConfig, StorageSystem
from repro.system.placement import make_placement_policy
from repro.units import MB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedWorkloadParams, generate_mixed_workload
from repro.workload import RequestStream

POLICIES = ("lru", "fifo", "clock", "lfu")
#: 0.5 s overhead, 1 MB/s: a request of k/4 MB completes on the 0.25 grid.
GRID = replace(
    ST3500630AS, avg_seek_time=0.25, avg_rotation_time=0.25,
    transfer_rate=1.0 * MB, spinup_time=2.0, spindown_time=1.0,
)
HORIZON = 400.0
INTERVAL = 50.0


def _cache_snapshot(cache):
    snap = [
        type(cache).__name__, list(cache._sizes.items()), cache.used,
        repr(cache.stats),
    ]
    if isinstance(cache, ClockCache):
        snap.append(sorted(cache._referenced))
    if isinstance(cache, LFUCache):
        snap += [list(cache._freq.items()), list(cache._heap),
                 repr(cache._seq)]
    return snap


def _bank_state(bank):
    return (
        bank._fst.tobytes(), bank._ust.tobytes(), bank._rst.tobytes(),
        bank.gap_log, bank.park_spans, bank.down_spans, bank.wake_spans,
    )


def _stream(rng, n_files, n, mapped):
    """Grid times with repeats; an unmapped file's first touch is a
    write, later touches mix reads and writes."""
    gaps = rng.choice([0.0, 0.25, 0.5, 1.0, 3.0, 12.0], size=n)
    scale = 0.95 * HORIZON / max(1.0, gaps.sum())
    times = np.cumsum(gaps) * scale // 0.25 * 0.25
    fid = rng.integers(0, n_files, size=n)
    write = rng.random(n) < 0.15
    seen = mapped.copy()
    for i, f in enumerate(fid.tolist()):
        if not seen[f]:
            write[i] = True
            seen[f] = True
    return times, fid, write


def _prefill(cache, rng, n_files, sizes):
    for f in rng.integers(0, n_files, size=12).tolist():
        if not cache.lookup(f, sizes[f]):
            cache.admit(f, sizes[f])


class _Side:
    """One side of a twin: a bank, a cache state, a placement policy and
    the per-file arrays, advanced batch by batch."""

    def __init__(self, impl, cache, sizes, mapping, num_disks, ladder,
                 controlled, observe, spans, horizon):
        self.impl = impl
        if controlled:
            self.bank = _DiskBank(
                num_disks, 3.0, ladder, GRID, horizon, interval=INTERVAL
            )
        else:
            self.bank = _DiskBank(
                num_disks, [3.0, 0.0, math.inf][:num_disks], ladder, GRID,
                horizon, log_spans=spans,
            )
        self.cache = cache
        self.mapping = mapping.copy()
        self.free = np.full(num_disks, 1e12)
        self.policy = make_placement_policy("spinning_best_fit")
        self.policy.reset(num_disks)
        self.obs = TraceRecorder() if observe else None
        state_cls = _CacheState if impl == "c" else oracle.CacheState
        self.state = state_cls(
            cache, sizes, self.mapping, self.free, self.policy, self.bank,
            observe,
        )

    def serve(self, sizes, fid, t, w, base):
        walk = _serve_coupled if self.impl == "c" else oracle.serve_coupled
        starts = np.full(t.size, np.nan)
        d_req = np.full(t.size, -7, dtype=np.int64)
        walk(self.state, fid, t, w, starts, d_req, base, self.obs)
        return starts, d_req

    def finish(self):
        drain = _admit_pending if self.impl == "c" else oracle.admit_pending
        drain(self.state, self.obs)
        self.state.write_back()

    def outputs(self):
        out = [
            _bank_state(self.bank), self.mapping.tolist(), self.free.tolist(),
            _cache_snapshot(self.cache),
        ]
        if self.obs is not None:
            out += [self.obs.cache_events, self.obs.placements]
        return out


def _twins(policy, capacity, sizes, mapping, num_disks, ladder, controlled,
           observe, spans, prefill_rng=None, horizon=HORIZON):
    sides = []
    for impl in ("c", "py"):
        cache = make_cache(policy, capacity)
        if prefill_rng is not None:
            _prefill(
                cache, np.random.default_rng(prefill_rng), sizes.size,
                sizes.tolist(),
            )
        sides.append(
            _Side(impl, cache, sizes, mapping, num_disks, ladder, controlled,
                  observe, spans, horizon)
        )
    return sides


def _run_twins(sides, sizes, times, fid, write, cuts, rows=None):
    base = 0
    for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        w = write[lo:hi] if write[lo:hi].any() else None
        got = [s.serve(sizes, fid[lo:hi], times[lo:hi], w, base) for s in sides]
        assert got[0][0].tobytes() == got[1][0].tobytes()
        assert got[0][1].tolist() == got[1][1].tolist()
        assert sides[0].outputs()[:3] == sides[1].outputs()[:3]
        if rows is not None and k + 1 < len(rows):
            for s in sides:
                s.bank.push_thresholds(rows[k + 1])
        base += hi - lo
    for s in sides:
        s.finish()
    assert sides[0].outputs() == sides[1].outputs()


@given(
    seed=st.integers(0, 2**32 - 1),
    policy=st.sampled_from(POLICIES),
    cap_mb=st.sampled_from([0.75, 3.0, 8.0, math.inf]),
    ladder=st.sampled_from(["two_state", "drpm4"]),
    mode=st.sampled_from(["fixed", "fixed_spans", "controlled"]),
    observe=st.booleans(),
    prefill=st.booleans(),
    n_cuts=st.integers(0, 6),
    tiny=st.booleans(),
    grid=st.booleans(),
)
def test_compiled_walk_matches_oracle(
    seed, policy, cap_mb, ladder, mode, observe, prefill, n_cuts, tiny, grid
):
    """Random streams over 3 disks and 40 files (zero-size files and files
    larger than the cache among them), cut into batches.  Grid sizes make
    completions tie with arrivals; off the grid, ``used`` collects float
    residue.  ``tiny`` record and event buffers make the walk stop and
    resume."""
    rng = np.random.default_rng(seed)
    n_files, num_disks = 40, 3
    sizes = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0, 10.0], size=n_files) * MB
    if not grid:
        sizes = sizes * rng.uniform(0.3, 1.7, size=n_files)
    mapping = rng.integers(0, num_disks, size=n_files)
    mapping[rng.random(n_files) < 0.2] = -1
    times, fid, write = _stream(rng, n_files, 300, mapping >= 0)
    n = times.size
    cuts = sorted({0, n, *rng.integers(0, n, n_cuts).tolist()})
    controlled = mode == "controlled"
    rows = None
    if controlled:
        rows = rng.choice([0.0, 1.0, 3.0, 7.5, math.inf], size=(len(cuts), 3))
        rows[0] = 3.0
    saved = fastkernel._LOG_CHUNK
    fastkernel._LOG_CHUNK = 5 if tiny else saved
    try:
        sides = _twins(
            policy, cap_mb * MB, sizes, mapping, num_disks,
            make_dpm_ladder(ladder, GRID), controlled, observe,
            mode == "fixed_spans", prefill_rng=seed if prefill else None,
        )
    finally:
        fastkernel._LOG_CHUNK = saved
    _run_twins(sides, sizes, times, fid, write, cuts, rows)
    stats = sides[0].cache.stats
    assert stats.lookups > 0


@pytest.mark.parametrize("mode", ["fixed_spans", "controlled"])
@pytest.mark.parametrize("policy", POLICIES)
def test_one_record_buffers_resume(policy, mode):
    """Placement and gap-log buffers of one record, span buffers of one
    request's worth and an event buffer of two (an admission evicting the
    one file the cache holds): the walk stops at nearly every arrival, and
    every resume path must still match the oracle."""
    rng = np.random.default_rng(11)
    n_files, num_disks = 12, 3
    sizes = np.full(n_files, 1.0 * MB)
    mapping = rng.integers(0, num_disks, size=n_files)
    mapping[::3] = -1
    times, fid, write = _stream(rng, n_files, 150, mapping >= 0)
    n = times.size
    cuts = [0, n // 3, n]
    controlled = mode == "controlled"
    rows = None
    if controlled:
        rows = rng.choice([0.0, 1.0, 7.5, math.inf], size=(len(cuts), 3))
    saved = fastkernel._LOG_CHUNK
    fastkernel._LOG_CHUNK = 1
    try:
        sides = _twins(
            policy, 1.0 * MB, sizes, mapping, num_disks,
            make_dpm_ladder("drpm4", GRID), controlled, True, not controlled,
        )
    finally:
        fastkernel._LOG_CHUNK = saved
    sides[0].state.args.ev_cap = 2
    _run_twins(sides, sizes, times, fid, write, cuts, rows)
    assert sides[0].obs.placements and sides[0].cache.stats.evictions


def _pinned(policy, capacity, times, fid, sizes, horizon=HORIZON):
    """One disk, every file mapped to it, one observed batch, both sides;
    returns the compiled side."""
    mapping = np.zeros(sizes.size, dtype=np.int64)
    sides = _twins(
        policy, capacity, sizes, mapping, 1,
        make_dpm_ladder("two_state", GRID), False, True, True,
        horizon=horizon,
    )
    times = np.asarray(times, dtype=float)
    fid = np.asarray(fid, dtype=np.int64)
    _run_twins(sides, sizes, times, fid, np.zeros(times.size, bool),
               [0, times.size])
    return sides[0]


def test_admission_at_an_arrival_instant_goes_first():
    """A miss at 0 completes at exactly 0.5 + 1.0; a read of the same file
    arriving then hits, because the admission drains first."""
    sizes = np.array([1.0 * MB])
    side = _pinned("lru", 4 * MB, [0.0, 1.5], [0, 0], sizes)
    kinds = [k for _, k, _ in side.obs.cache_events]
    assert kinds == ["miss", "admit", "hit"]
    assert side.obs.cache_events[1][0] == 1.5


def test_admissions_at_the_horizon_never_happen():
    """A completion just before T is admitted by the horizon drain; one
    exactly at T never is."""
    sizes = np.array([1.0 * MB, 0.75 * MB])
    # File 0 completes at 1.5; file 1 at 3.0 + 0.5 + 0.75 = 4.25.
    side = _pinned("lru", 4 * MB, [0.0, 3.0], [0, 1], sizes, horizon=4.5)
    assert [k for _, k, _ in side.obs.cache_events] == [
        "miss", "admit", "miss", "admit"
    ]
    side = _pinned("lru", 4 * MB, [0.0, 3.0], [0, 1], sizes, horizon=4.25)
    assert [k for _, k, _ in side.obs.cache_events] == [
        "miss", "admit", "miss"
    ]
    assert list(side.cache._sizes) == [0]


def test_lfu_readmission_ranks_by_the_old_snapshot():
    """Float residue in ``used`` lets file 0 fit again right after it was
    evicted, so it is re-admitted while its evicted (1, 0) snapshot is
    still the heap top, and the next eviction takes it by that old
    snapshot ahead of file 1 — exactly as ``LFUCache`` does."""
    cap = 1.9604131266754072
    sizes = np.array(
        [0.9560342718892494, 0.9478274870593494, 0.05655136772680869, 1.5]
    )
    times = [0.0, 10.0, 20.0, 30.0, 40.0]
    side = _pinned("lfu", cap, times, [0, 1, 2, 0, 3], sizes)
    evicted = [f for _, k, f in side.obs.cache_events if k == "evict"]
    assert evicted[:2] == [0, 0]


def test_clock_hand_wraps_around():
    """Every resident file referenced: the hand clears each bit, wraps
    around the circle and evicts the first file it cleared."""
    sizes = np.full(5, 1.0 * MB)
    times = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0]
    fid = [0, 1, 2, 0, 1, 2, 3, 4]
    side = _pinned("clock", 3 * MB, times, fid, sizes)
    evicted = [f for _, k, f in side.obs.cache_events if k == "evict"]
    assert evicted[:2] == [0, 1]
    assert side.cache._referenced == set()


@pytest.mark.parametrize("policy", POLICIES)
def test_oversized_zero_size_and_unbounded(policy):
    """Zero-size files, a file larger than the cache (rejected), one
    exactly as large (admitted, evicting the rest), and no bound at all."""
    sizes = np.array([0.0, 5.0 * MB, 1.0 * MB, 0.0, 2.0 * MB])
    times = np.arange(14) * 4.0
    fid = [0, 1, 2, 3, 0, 1, 2, 3, 1, 0, 2, 3, 4, 0]
    side = _pinned(policy, 2 * MB, times, fid, sizes)
    assert side.cache.stats.rejected >= 2  # file 1 never fits
    assert 1 not in side.cache
    assert 4 in side.cache and 2 not in side.cache
    side = _pinned(policy, math.inf, times, fid, sizes)
    assert side.cache.stats.evictions == 0
    assert sorted(side.cache._sizes) == [0, 1, 2, 3, 4]


def _small_run(cache, observer, mapping=None, times=None, fid=None):
    sizes = np.array([1.0, 2.0, 1.0, 3.0]) * MB
    times = np.array([0.0, 1.0, 2.0, 3.0, 8.0, 9.0]) if times is None else times
    fid = np.array([0, 1, 2, 3, 0, 1]) if fid is None else fid
    stream = RequestStream(times=times, file_ids=fid, duration=50.0)
    return simulate_fast(
        sizes=sizes,
        mapping=np.array([0, 1, 0, 1]) if mapping is None else mapping,
        spec=GRID, num_disks=2, threshold=3.0, stream=stream,
        duration=50.0, cache=cache, observer=observer,
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_prefilled_cache_passed_to_simulate_fast(policy):
    """A cache already holding files (ids beyond the catalog among them)
    is loaded, used and written back exactly as the Python pass leaves
    it."""
    caches, results, recorders = [], [], []
    for swap in (False, True):
        cache = make_cache(policy, 4 * MB)
        for f, size in ((9, 1.0 * MB), (0, 1.0 * MB), (2, 1.0 * MB)):
            cache.admit(f, size)
        cache.lookup(0, 1.0 * MB)
        recorder = TraceRecorder()
        if swap:
            with oracle.coupled_oracle():
                results.append(_small_run(cache, recorder))
        else:
            results.append(_small_run(cache, recorder))
        caches.append(_cache_snapshot(cache))
        recorders.append(recorder.cache_events)
    assert caches[0] == caches[1]
    assert recorders[0] == recorders[1]
    assert results[0].response_times.tobytes() == (
        results[1].response_times.tobytes()
    )
    assert results[0].cache_stats.hits >= 1


def test_unmapped_read_raises_after_its_events():
    cache = LRUCache(100 * MB)
    recorder = TraceRecorder()
    with pytest.raises(SimulationError, match="unallocated file 2"):
        _small_run(
            cache, recorder, mapping=np.array([0, 1, -1, 1]),
            times=np.array([0.0, 1.0, 2.0, 3.0]), fid=np.array([0, 1, 2, 3]),
        )
    # File 0 is admitted at 1.5, before the failing read at 2.0; file 1
    # would complete at 3.5.
    assert recorder.cache_events == [
        (0.0, "miss", 0), (1.0, "miss", 1), (1.5, "admit", 0),
        (2.0, "miss", 2),
    ]
    # Written back on the way out, the failing read's miss included.
    assert list(cache._sizes) == [0]
    assert cache.stats.misses == 3


def test_file_outside_the_catalog_raises():
    with pytest.raises(SimulationError, match=r"in \[0, 4\)"):
        _small_run(LRUCache(100 * MB), None, fid=np.array([0, 1, 7, 3, 0, 1]))


class _MyLRU(LRUCache):
    pass


@pytest.mark.parametrize("cache", [BaseCache(4 * MB), _MyLRU(4 * MB)])
def test_other_cache_classes_are_refused(cache):
    with pytest.raises(ConfigError, match="lru, fifo, clock and lfu"):
        _small_run(cache, None)


def test_inconsistent_lfu_cache_is_refused():
    cache = LFUCache(4 * MB)
    cache.admit(0, 1.0 * MB)
    cache._heap.clear()  # no snapshot left for the resident file
    with pytest.raises(ConfigError, match="snapshot heap"):
        _small_run(cache, None)


def test_event_block_iterates_as_tuples():
    block = CacheEventBlock(
        np.array([1.0, 2.5]), np.array([1, 3], dtype=np.int8),
        np.array([4, 9]),
    )
    assert list(block) == [(1.0, "miss", 4), (2.5, "evict", 9)]
    assert len(block) == 2
    assert block.kind_counts() == [("miss", 1), ("evict", 1)]


BASE = StorageConfig(num_disks=6, load_constraint=0.7, engine="fast")

RUNS = {
    "plain": {},
    "chunked": {"chunk_size": 97},
    "controlled": {
        "dpm_policy": "slo_feedback", "slo_target": 20.0,
        "control_interval": 150.0,
    },
    "scheduled": {
        "scheduler": "slack_defer", "scheduler_params": {"max_hold": 15.0},
        "dpm_policy": "slo_feedback", "slo_target": 20.0,
        "control_interval": 150.0, "chunk_size": 211,
    },
    "drpm4_streaming": {"dpm_ladder": "drpm4", "metrics_mode": "streaming"},
}


@pytest.fixture(scope="module")
def mixed_inputs():
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=300, arrival_rate=3.0, duration=1_500.0, seed=4
        )
    )
    catalog, mixed = generate_mixed_workload(
        workload.catalog,
        MixedWorkloadParams(
            write_fraction=0.2, new_file_fraction=0.3, arrival_rate=3.0,
            duration=1_500.0, seed=5,
        ),
    )
    mapping = np.arange(catalog.n) % BASE.num_disks
    mapping[workload.catalog.n:] = -1
    return catalog, mixed, mapping


@pytest.mark.parametrize("observe", [False, True])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_whole_run_matches_oracle(mixed_inputs, monkeypatch, name, policy,
                                  observe):
    """Whole cached runs with writes, compiled walk vs the Python pass:
    every simulated output, the final cache object, and what the
    observer saw."""
    import repro.system.storage as storage

    catalog, mixed, mapping = mixed_inputs
    cfg = BASE.with_overrides(
        cache_policy=policy, cache_capacity=3_000 * MB, **RUNS[name]
    )
    made = []

    def make(*args):
        made.append(make_cache(*args))
        return made[-1]

    monkeypatch.setattr(storage, "make_cache", make)

    def run():
        recorder = TraceRecorder() if observe else None
        result = StorageSystem(catalog, mapping, cfg).run(
            mixed, observer=recorder
        )
        out = [
            None if result.response_times is None
            else result.response_times.tobytes(),
            repr(result.response_stats), result.energy_per_disk.tobytes(),
            sorted((str(k), v) for k, v in result.state_durations.items()),
            result.spinups_per_disk.tobytes(),
            result.requests_per_disk.tobytes(),
            result.final_mapping.tobytes(), repr(result.extra.get("dpm")),
            _cache_snapshot(made[-1]),
        ]
        if observe:
            out += [
                recorder.cache_events, recorder.placements,
                recorder.state_spans, recorder.threshold_events,
                result.extra["obs"],
            ]
        return out

    compiled = run()
    with oracle.coupled_oracle():
        python = run()
    assert compiled == python
    assert made[0].stats.hits and made[0].stats.evictions
