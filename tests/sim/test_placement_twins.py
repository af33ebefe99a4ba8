"""Write placement in the compiled walk against the Python table evaluator.

``serve.c`` places a write of an unmapped file itself: it evaluates the
policy's row of :data:`repro.system.placement.PLACEMENT_RULES` on the
bank's live arrays.  ``serve_oracle.serve_coupled`` places the same write
through ``serve_oracle.allocate_for_write``: the policy's NumPy ``choose``
against ``serve_oracle.spinning_mask``.  Both run on twin banks, batch by
batch, over random pools, and must agree bit for bit: starts, serving
disks, completions, responses, bank arrays and logs, the per-disk service
accounting, the mapping, free bytes, the round-robin cursor, the placements an observer sees, and the error (message included)
when a write finds no disk with room.

Times, sizes, overheads, transfer rates and ladder times sit on a grid of
0.25 s, so writes land exactly on drain instants, descent ends and wake
ends, and several arrivals share an instant (the instant-start snapshot
applies).  Free bytes, loads and active powers tie often; the lowest disk
id must win every tie.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serve_oracle as oracle
import repro.sim.fastkernel as fastkernel
from repro.cache import make_cache
from repro.disk.dpm import make_dpm_ladder
from repro.disk.fleet import make_fleet
from repro.disk.specs import ST3500630AS
from repro.errors import CapacityError, SimulationError
from repro.obs.hooks import PlacementBlock, RunObserver
from repro.obs.trace import TraceRecorder
from repro.sim.fastkernel import (
    _CacheState,
    _DiskBank,
    _serve_coupled,
    _Walk,
)
from repro.system.placement import make_placement_policy, placement_policy_names
from repro.units import MB

GRID = replace(
    ST3500630AS, avg_seek_time=0.25, avg_rotation_time=0.25,
    transfer_rate=1.0 * MB, spinup_time=2.0, spindown_time=1.0,
)
#: A second grid generation: faster, cheaper to run, slower to wake.
GRID2 = replace(
    GRID, model="grid2", transfer_rate=2.0 * MB, active_power=8.0,
    spinup_time=3.0,
)
HORIZON = 300.0
INTERVAL = 40.0
FLEETS = ("grid", "grid_mixed", "mixed_generation")


def _pool(fleet, ladder, num_disks):
    """Per-disk specs and ladders of one test pool."""
    if fleet == "grid":
        specs = [GRID] * num_disks
    elif fleet == "grid_mixed":
        specs = [(GRID, GRID2)[d % 2] for d in range(num_disks)]
    else:
        specs = list(make_fleet(fleet).resolve(num_disks).specs)
    ladders = [make_dpm_ladder(ladder, s) for s in specs]
    return specs, ladders


class _Side:
    """One side of a twin: a bank, a walk state, a policy and the per-file
    arrays, advanced batch by batch."""

    def __init__(self, impl, policy, cursor, specs, ladders, th, controlled,
                 sizes, mapping, free, cache, observe):
        self.impl = impl
        num_disks = len(specs)
        th = np.broadcast_to(np.asarray(th, float), (num_disks,))
        if controlled:
            self.bank = _DiskBank(
                specs, ladders, th, HORIZON, interval=INTERVAL
            )
        else:
            self.bank = _DiskBank(
                specs, ladders, th, HORIZON, log_spans=observe
            )
        self.mapping = mapping.copy()
        self.free = free.copy()
        self.policy = make_placement_policy(policy)
        self.policy.reset(num_disks)
        if cursor is not None:
            self.policy._cursor = cursor
        self.cache = None if cache is None else make_cache(cache, 6 * MB)
        self.obs = TraceRecorder() if observe else None
        if self.cache is None:
            make = _Walk if impl == "c" else oracle.walk_state
            self.state = make(
                sizes, self.mapping, self.free, self.policy, self.bank,
                observe,
            )
        else:
            make = _CacheState if impl == "c" else oracle.CacheState
            self.state = make(
                self.cache, sizes, self.mapping, self.free, self.policy,
                self.bank, observe,
            )

    def serve(self, fid, t, w, base):
        """One batch; returns ``(outputs, error)``: starts, serving disks,
        completions and responses, then the per-disk service accounting
        (only on success: the oracle bills a batch once it is done)."""
        walk = _serve_coupled if self.impl == "c" else oracle.serve_coupled
        starts, comp, resp = np.full((3, t.size), np.nan)
        d_req = np.full(t.size, -7, dtype=np.int64)
        try:
            walk(self.state, fid, t, w, starts, d_req, comp, resp, base,
                 self.obs)
        except CapacityError as exc:
            return None, str(exc)
        bank = self.bank
        return [
            a.tobytes() for a in (starts, d_req, comp, resp, bank._svc,
                                  bank.n_req)
        ], None

    def outputs(self):
        bank = self.bank
        out = [
            bank._fst.tobytes(), bank._ust.tobytes(), bank._rst.tobytes(),
            oracle.gap_logs(bank), oracle.span_logs(bank),
            self.mapping.tolist(), self.free.tolist(),
            getattr(self.policy, "_cursor", None),
        ]
        if self.obs is not None:
            out += [self.obs.placements, self.obs.cache_events]
        return out


def _stream(rng, n_files, n, mapped):
    """Grid times with repeats; an unmapped file's first touch is a
    write, later touches mix reads and writes."""
    gaps = rng.choice([0.0, 0.25, 0.5, 1.0, 3.0, 12.0], size=n)
    scale = 0.95 * HORIZON / max(1.0, gaps.sum())
    times = np.cumsum(gaps) * scale // 0.25 * 0.25
    fid = rng.integers(0, n_files, size=n)
    write = rng.random(n) < 0.2
    seen = mapped.copy()
    for i, f in enumerate(fid.tolist()):
        if not seen[f]:
            write[i] = True
            seen[f] = True
    return times, fid, write


def _run_twins(sides, times, fid, write, cuts, pushes=None):
    """Serve the batches between ``cuts`` on both sides; after batch
    ``k`` push ``pushes[k]`` threshold rows.  Returns the error, if any."""
    base = 0
    for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        w = write[lo:hi] if write[lo:hi].any() else None
        got = [s.serve(fid[lo:hi], times[lo:hi], w, base) for s in sides]
        assert got[0][1] == got[1][1]
        assert sides[0].outputs() == sides[1].outputs()
        if got[0][1] is not None:
            return got[0][1]
        assert got[0][0] == got[1][0]
        for row in (pushes[k] if pushes is not None else ()):
            for s in sides:
                s.bank.push_thresholds(row)
        base += hi - lo
    return None


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    policy=st.sampled_from(placement_policy_names()),
    num_disks=st.integers(1, 6),
    fleet=st.sampled_from(FLEETS),
    ladder=st.sampled_from(["two_state", "drpm4"]),
    controlled=st.booleans(),
    cache=st.sampled_from([None, None, "lru"]),
    observe=st.booleans(),
    n_cuts=st.integers(0, 6),
    room=st.sampled_from(["ample", "tight", "none"]),
    tiny=st.booleans(),
)
def test_compiled_placement_matches_oracle(
    seed, policy, num_disks, fleet, ladder, controlled, cache, observe,
    n_cuts, room, tiny,
):
    """Random pools, policies and streams cut into batches: every rule,
    tied keys, grid-aligned writes, controlled rows (``inf`` among them)
    pushed ahead of or behind the stream, mixed fleets, and pools that
    fill up partway through a batch.  ``tiny`` buffers make the walk stop
    after every placement and record."""
    rng = np.random.default_rng(seed)
    n_files = 40
    sizes = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0, 10.0], size=n_files) * MB
    mapping = rng.integers(0, num_disks, size=n_files)
    mapping[rng.random(n_files) < 0.4] = -1
    levels = {"ample": [1e6, 1e6], "tight": [0.0, 2.0, 5.0, 10.0, 40.0],
              "none": [0.0, 0.25]}[room]
    free = rng.choice(levels, size=num_disks) * MB
    times, fid, write = _stream(rng, n_files, 250, mapping >= 0)
    n = times.size
    cuts = sorted({0, n, *rng.integers(0, n, n_cuts).tolist()})
    specs, ladders = _pool(fleet, ladder, num_disks)
    th_choices = [0.0, 1.0, 3.0, 7.5, math.inf]
    th = rng.choice(th_choices, size=num_disks)
    pushes = None
    if controlled:
        pushes = [
            rng.choice(th_choices, size=(int(rng.integers(0, 3)), num_disks))
            for _ in cuts
        ]
    cursor = int(rng.integers(0, num_disks)) if policy == "round_robin" else None
    saved = fastkernel._LOG_CHUNK
    fastkernel._LOG_CHUNK = 1 if tiny else saved
    try:
        sides = [
            _Side(impl, policy, cursor, specs, ladders, th, controlled,
                  sizes, mapping, free, cache, observe)
            for impl in ("c", "py")
        ]
    finally:
        fastkernel._LOG_CHUNK = saved
    error = _run_twins(sides, times, fid, write, cuts, pushes)
    if room == "none" and error is None:
        assert (sides[0].mapping[np.unique(fid[write])] >= 0).all()
    if error is not None:
        assert error.startswith("no disk has ")


def _pinned_sides(policy, free, th=3.0, observe=True, tiny=False,
                  cache=None, specs=None, mapping=None, cursor=None):
    """Two-sided twin over a grid pool: every file unmapped by default."""
    specs = [GRID] * len(free) if specs is None else specs
    ladders = [make_dpm_ladder("two_state", s) for s in specs]
    sizes = np.full(8, 1.0 * MB)
    mapping = np.full(8, -1) if mapping is None else np.asarray(mapping)
    saved = fastkernel._LOG_CHUNK
    fastkernel._LOG_CHUNK = 1 if tiny else saved
    try:
        return [
            _Side(impl, policy, cursor, specs, ladders, th, False, sizes,
                  mapping, np.asarray(free, dtype=float) * MB, cache, observe)
            for impl in ("c", "py")
        ]
    finally:
        fastkernel._LOG_CHUNK = saved


@pytest.mark.parametrize("policy", placement_policy_names())
def test_exact_ties_go_to_the_lowest_id(policy):
    """Equal free bytes, zero loads and equal powers on every disk: the
    first write goes to disk 0 under every rule (round robin from a
    cursor at 0)."""
    sides = _pinned_sides(policy, [5.0, 5.0, 5.0, 5.0])
    times = np.array([0.0])
    _run_twins(sides, times, np.array([0]), np.array([True]), [0, 1])
    assert sides[0].mapping[0] == 0


def test_tied_loads_and_powers_pick_the_lowest_id():
    """Disks 1 and 3 tie on load and disks 0 and 2 on power (a mixed grid
    fleet); hottest and cheapest must pick the lower id of each tie."""
    specs = [GRID2, GRID, GRID2, GRID]
    for policy, want in (("hottest_spinning", 1), ("cheapest_spinning", 0),
                         ("coldest_disk", 0)):
        # Files 0-3 pre-mapped: reads load disks 1 and 3 alike (1 MB on
        # the slow generation each); disks 0 and 2 stay unloaded.
        sides = _pinned_sides(policy, [9.0] * 4, th=math.inf, specs=specs,
                              mapping=[0, 1, 2, 3, -1, -1, -1, -1])
        times = np.array([0.0, 0.0, 5.0])
        fid = np.array([1, 3, 4])
        _run_twins(sides, times, fid, np.array([False, False, True]),
                   [0, 3])
        assert sides[0].mapping[4] == want


@pytest.mark.parametrize("policy", placement_policy_names())
def test_writes_at_a_drain_and_at_a_wake_instant(policy):
    """Disk 0 drains at 1.5 (0.5 s overhead + 1 s transfer) and, at a 0 s
    threshold, finishes its spin-down at exactly 2.5; a write at 2.5 must
    read it parked.  Disk 1 is woken by a read at 30.0 and a write in the
    same instant must still see it parked (the instant-start snapshot).
    Both sides must agree on every placement."""
    sides = _pinned_sides(policy, [4.0, 4.0, 4.0], th=0.0,
                          mapping=[0, 1, -1, -1, -1, -1, -1, -1])
    times = np.array([0.0, 1.5, 2.5, 2.5, 30.0, 30.0, 31.0])
    fid = np.array([0, 2, 3, 4, 1, 5, 6])
    write = np.array([False, True, True, True, False, True, True])
    _run_twins(sides, times, fid, write, [0, 3, 7])


def test_spin_view_reads_the_row_in_effect_at_the_drain():
    """A controlled pool: disk 0 drains at 1.5 under row 0 (threshold
    ``inf``: it never parks), and row 1 (threshold 0 everywhere) is pushed
    before a write at 50.  Disk 0's armed timer is still row 0's, so it
    reads spinning and takes the write; reading row 1 would park it and
    send the write to disk 1 by the worst-fit fallback."""
    specs = [GRID, GRID]
    ladders = [make_dpm_ladder("two_state", GRID)] * 2
    sizes = np.full(2, 1.0 * MB)
    sides = [
        _Side(impl, "spinning_best_fit", None, specs, ladders,
              [math.inf, 0.0], True, sizes, np.array([0, -1]),
              np.array([2.0, 5.0]) * MB, None, True)
        for impl in ("c", "py")
    ]
    _run_twins(sides, np.array([0.0, 50.0]), np.array([0, 1]),
               np.array([False, True]), [0, 1, 2],
               pushes=[[[0.0, 0.0]], []])
    assert sides[0].mapping[1] == 0


@pytest.mark.parametrize("cache", [None, "lru"])
@pytest.mark.parametrize("tiny", [False, True])
def test_pool_fills_in_the_middle_of_a_batch(cache, tiny):
    """The third 1 MB write finds no room: both sides raise the same
    message, and the observer still gets the batch's first two placements
    (and, with a cache, its events up to the failing write)."""
    sides = _pinned_sides("spinning_best_fit", [1.0, 1.0], tiny=tiny,
                          cache=cache, mapping=[0, 1, -1, -1, -1, -1, -1, -1])
    times = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    fid = np.array([0, 2, 1, 3, 4, 0])
    write = np.array([False, True, False, True, True, False])
    error = _run_twins(sides, times, fid, write, [0, 6])
    assert error == "no disk has 1000000 free bytes for the written file"
    assert [d for _, _, d in sides[0].obs.placements] == [0, 1]
    if cache is not None:
        # File 1's miss completes at 3.5, before the failing write at 4.0.
        assert [k for _, k, _ in sides[0].obs.cache_events] == [
            "miss", "admit", "miss", "admit"
        ]


class _Forwarding(RunObserver):
    """Implements only the single-placement hook."""

    def __init__(self):
        self.seen = []

    def on_placement(self, time, file_id, disk):
        self.seen.append((time, file_id, disk))


def test_placement_block_forwards_to_the_single_hook():
    block = PlacementBlock(
        np.array([1.0, 2.5]), np.array([4, 9]), np.array([0, 2])
    )
    assert list(block) == [(1.0, 4, 0), (2.5, 9, 2)]
    assert len(block) == 2
    observer = _Forwarding()
    observer.on_placements(block)
    assert observer.seen == [(1.0, 4, 0), (2.5, 9, 2)]


@pytest.mark.parametrize("bad", ["free_dtype", "free_length", "mapping_view"])
def test_arrays_the_walk_writes_are_checked(bad):
    bank = _DiskBank((GRID,) * 2, (make_dpm_ladder("two_state", GRID),) * 2,
                     [3.0, 3.0], HORIZON)
    sizes = np.full(4, 1.0 * MB)
    mapping = np.full(4, -1)
    free = np.full(2, 4.0 * MB)
    if bad == "free_dtype":
        free = free.astype(np.float32)
    elif bad == "free_length":
        free = np.full(3, 4.0 * MB)
    else:
        mapping = np.full(8, -1)[::2]
    with pytest.raises(SimulationError, match="walk .* must be a contiguous"):
        _Walk(sizes, mapping, free, make_placement_policy(), bank, False)
