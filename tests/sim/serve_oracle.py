"""The fast kernel's serve loops in pure Python: the oracle the compiled
walk is held to.

:func:`serve` and :func:`descend` are the per-request step (formerly
``_DiskBank.serve`` / ``_descend``), and :func:`serve_coupled` is the pass
that walks a batch's arrivals one at a time through them (formerly
``fastkernel._serve_coupled``): with a shared cache it drives the cache
object's own ``lookup``/``admit`` and a ``heapq`` of pending admissions;
without one it serves every request.  A write of an unmapped file is
placed by :func:`allocate_for_write` (formerly
``fastkernel._allocate_for_write``): the policy's own ``choose`` — the
NumPy evaluator of its rule-table row — against :func:`spinning_mask`
(formerly ``_DiskBank.spinning_mask``), the bank's free bytes and load.  :func:`serve_segment` is the
read-only loop the kernel ran before its serve loop moved to C
(:mod:`repro.native`): a stable per-disk grouping, then one hoisted FIFO
loop per disk (:func:`serve_batch`, formerly ``_DiskBank.serve_batch``).
All of them read and write the bank's state arrays in place, converting
to Python floats on the way in.  :func:`complete` is the completion
formula and the ``np.add.at`` service accounting the kernel ran in NumPy
before the walk took them over.  The twin tests compare the compiled walk
with :func:`serve` and :func:`serve_coupled` bit for bit
(:func:`coupled_oracle` swaps the latter into whole runs), and the
same-machine benchmark floors route cache-less read-only batches through
:func:`serve_segment` to time the seed's own loop.  Kept out of ``src/``
on purpose — it is a test oracle, not a second implementation.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappop, heappush
from itertools import repeat
from math import inf
from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.system.placement import PlacementContext


def fixed_entries(bank, d: int) -> tuple:
    """Disk ``d``'s descent schedule on a fixed-threshold bank."""
    return tuple(bank._ent[0, d, : max(bank.R[d], 2)].tolist())


def entries_for(bank, d: int, th: float) -> tuple:
    """Disk ``d``'s descent schedule under threshold ``th``, from its
    ladder's scalar ``scaled_entries`` (formerly
    ``_DiskBank._entries_for``); a one-rung ladder gets an ``inf`` first
    entry, so no gap ever descends."""
    entries = bank.ladders[d].scaled_entries(th)
    return (0.0, inf) if len(entries) == 1 else entries


def log_span(log: list, d: int, s: float, e: float) -> None:
    """Append one ``(disk, start, end)`` span to a bank span log of
    ``(disks, starts, ends)`` column blocks, as a block of one."""
    log.append((np.array([d]), np.array([s]), np.array([e])))


def log_gap(bank, d: int, g: float, th: float) -> None:
    """Append one closed gap to a bank's gap log of ``(disks, gaps,
    thresholds)`` column blocks, as a block of one."""
    bank.gap_log.append((np.array([d]), np.array([g]), np.array([th])))


def gap_logs(bank):
    """The bank's gap log as per-disk lists of ``(gap, threshold)``
    pairs in close order, for comparing twin banks (``None`` when the
    bank logs no gaps)."""
    if bank.gap_log is None:
        return None
    logs: List[list] = [[] for _ in bank.avail]
    for block in bank.gap_log:
        for d, g, th in zip(*(c.tolist() for c in block)):
            logs[d].append((g, th))
    return logs


def span_logs(bank):
    """The bank's park, descent and wake logs as per-rung lists of
    ``(disk, start, end)`` tuples, for comparing twin banks (``None``
    when the bank logs no spans)."""
    if bank.park_spans is None:
        return None
    return [
        [
            [
                span
                for block in blocks
                for span in zip(*(c.tolist() for c in block))
            ]
            for blocks in log
        ]
        for log in (bank.park_spans, bank.down_spans, bank.wake_spans)
    ]


def threshold_at(bank, drain: float, d: int) -> float:
    """Threshold governing a gap that began at ``drain`` on disk ``d``."""
    idx = int(drain / bank.ci)
    if idx > bank.k:
        idx = bank.k
    return float(bank._th[idx, d])


def descend(bank, d: int, a: float, t: float, entries) -> float:
    """Walk the idle gap ``[a, t)`` down disk ``d``'s ladder; returns
    the wake completion (service start) and bills every residency
    touched."""
    g = t - a
    T = bank.T
    dn = bank.dn[d]
    R = bank.R[d]
    down_t = bank.down_t[d]
    park_t = bank.park_t[d]
    spans = bank.park_spans is not None
    i = 1
    while i + 1 < R and g > entries[i + 1]:
        i += 1
    for j in range(1, i):
        # Rungs fully traversed before the arrival: full descent plus
        # park until the next rung's descent starts (all before t < T).
        ds = a + entries[j]
        de = ds + dn[j]
        down_t[j] = float(down_t[j]) + (de - ds)
        if spans:
            log_span(bank.down_spans[j], d, ds, de)
        pe = a + entries[j + 1]
        if pe > de:
            park_t[j] = float(park_t[j]) + (pe - de)
            if spans:
                log_span(bank.park_spans[j], d, de, pe)
    ds = a + entries[i]
    de = ds + dn[i]
    bank.n_down[d] += i
    down_t[i] = float(down_t[i]) + (min(de, T) - ds)
    if spans:
        log_span(bank.down_spans[i], d, ds, de)
    if t >= de:
        park_t[i] = float(park_t[i]) + (t - de)
        if spans:
            log_span(bank.park_spans[i], d, de, t)
        ws = t
    else:
        # Arrived mid-descent: the transition is not abortable.
        ws = de
    w = bank.wk[d][i]
    if ws < T:
        bank.n_up[d] += 1
        bank.wake_t[d][i] = float(bank.wake_t[d][i]) + (min(ws + w, T) - ws)
        if spans:
            log_span(bank.wake_spans[i], d, ws, ws + w)
    return ws + w


def serve(bank, d: int, t: float, tr: float) -> float:
    """Queue one request on disk ``d`` arriving at ``t``; returns the
    service start (the event kernel's seek entry time)."""
    t = float(t)
    a = float(bank.avail[d])
    if t != bank.pt[d]:
        bank.pt[d] = t
        bank.pv[d] = a
    if t > a:
        if bank.gap_log is not None:
            th = threshold_at(bank, a, d)
            log_gap(bank, d, t - a, th)
            entries = entries_for(bank, d, th)
        else:
            entries = fixed_entries(bank, d)
        # A gap never exceeds an inf entry: such disks never descend.
        s = t if t - a <= entries[1] else descend(bank, d, a, t, entries)
    else:
        s = a
    oh = float(bank.oh_a[d])
    bank.avail[d] = s + oh + tr
    bank.load[d] = float(bank.load[d]) + (oh + tr)
    return s


def serve_batch(bank, d: int, ts: list, trs: list) -> List[float]:
    """``bank.serve`` over one disk's FIFO run, with the per-disk state
    held in locals for the long runs between coupling points.  Same
    arithmetic: a one-descent-rung ladder (the classic drive) walks
    its gaps inline, deeper ladders go through :func:`descend`."""
    out: List[float] = []
    append = out.append
    a = float(bank.avail[d])
    ld = float(bank.load[d])
    pt_d = float(bank.pt[d])
    pv_d = float(bank.pv[d])
    oh = float(bank.oh_a[d])
    T = bank.T
    fixed = bank.gap_log is None
    if fixed:
        entries = fixed_entries(bank, d)
        e1 = entries[1]
    else:
        ci = bank.ci
        rows = bank._th[: bank.k + 1, d].tolist()
        k = bank.k
        schedules: dict = {}
    inline = bank.R[d] == 2
    if inline:
        D = bank.dn[d][1]
        U = bank.wk[d][1]
        sd_t = float(bank.down_t[d, 1])
        sb_t = float(bank.park_t[d, 1])
        su_t = float(bank.wake_t[d, 1])
        n_up = int(bank.n_up[d])
        n_down = int(bank.n_down[d])
        if bank.park_spans is None:
            sd_log = sb_log = su_log = None
        else:
            sd_log, sb_log, su_log = (
                bank.down_spans[1], bank.park_spans[1], bank.wake_spans[1]
            )
    for t, tr in zip(ts, trs):
        if t != pt_d:
            pt_d = t
            pv_d = a
        if t > a:
            if not fixed:
                idx = int(a / ci)
                th = rows[idx if idx <= k else k]
                log_gap(bank, d, t - a, th)
                entries = schedules.get(th)
                if entries is None:
                    entries = schedules[th] = entries_for(bank, d, th)
                e1 = entries[1]
            if t - a <= e1:
                s = t
            elif not inline:
                s = descend(bank, d, a, t, entries)
            else:
                # descend's walk for a single descent rung.
                sd = a + e1
                sd_end = sd + D
                n_down += 1
                sd_t += min(sd_end, T) - sd
                if sd_log is not None:
                    log_span(sd_log, d, sd, sd_end)
                if t >= sd_end:
                    sb_t += t - sd_end
                    if sb_log is not None:
                        log_span(sb_log, d, sd_end, t)
                    su = t
                else:
                    su = sd_end
                if su < T:
                    n_up += 1
                    su_t += min(su + U, T) - su
                    if su_log is not None:
                        log_span(su_log, d, su, su + U)
                s = su + U
        else:
            s = a
        append(s)
        a = s + oh + tr
        ld += oh + tr
    if inline:
        bank.down_t[d, 1] = sd_t
        bank.park_t[d, 1] = sb_t
        bank.wake_t[d, 1] = su_t
        bank.n_up[d] = n_up
        bank.n_down[d] = n_down
    bank.avail[d] = a
    bank.load[d] = ld
    bank.pt[d] = pt_d
    bank.pv[d] = pv_d
    return out


def serve_segment(
    bank,
    d_seg: np.ndarray,
    t_seg: np.ndarray,
    tr_seg: np.ndarray,
    starts_out: np.ndarray,
) -> None:
    """Replay one read-only segment: stable per-disk grouping + batch FIFO.

    ``d_seg`` must be fully resolved (no ``-1``; callers validate); times
    are globally non-decreasing, so a stable sort on the disk index
    preserves each disk's arrival order.  ``starts_out`` (a view onto the
    segment's slice of the global starts array) is filled in place.
    """
    n = int(d_seg.size)
    if not n:
        return
    # A stable sort of 16-bit keys is a radix sort, several times faster
    # than on int64; a stable order is unique, so the result is the same.
    key = d_seg.astype(np.uint16) if len(bank.avail) <= 1 << 16 else d_seg
    order = np.argsort(key, kind="stable")
    d_s = d_seg[order]
    t_s = t_seg[order]
    tr_s = tr_seg[order]
    cuts = np.flatnonzero(np.diff(d_s)) + 1
    group_lo = np.concatenate(([0], cuts))
    group_hi = np.concatenate((cuts, [n]))
    seg_starts = np.empty(n, dtype=float)
    for lo, hi in zip(group_lo.tolist(), group_hi.tolist()):
        seg_starts[lo:hi] = serve_batch(
            bank, int(d_s[lo]), t_s[lo:hi].tolist(), tr_s[lo:hi].tolist()
        )
    starts_out[order] = seg_starts


def spinning_mask(bank, t: float) -> np.ndarray:
    """Per-disk "not parked in the deepest rung at ``t``" — the write
    policy's view of the pool.

    Descents, intermediate rungs and wakes all count as spinning, like
    :attr:`~repro.disk.drive.DiskDrive.spinning`: a drained disk is
    spinning until its last descent ends, and a disk still working
    (``t < avail``) always is, because a pending request rides the
    transitions straight back up.  Same-instant earlier serves are
    excluded via the instant-start snapshot: a disk woken at exactly ``t``
    still reads parked, like the event kernel's not-yet-resumed drive
    process.  An ``inf`` entry never parks.
    """
    disks = np.arange(len(bank.avail))
    last_col = np.maximum(np.asarray(bank.R), 2) - 1
    last_dn = np.array([dn[-1] for dn in bank.dn])
    avail = np.where(bank.pt == t, bank.pv, bank.avail)
    last = bank._ent[bank._rows(avail), disks, last_col]
    return t < (avail + last) + last_dn


def allocate_for_write(bank, policy, free, size: float, t: float) -> int:
    """Placement for a new file at time ``t``: the policy decides against
    the banked spin state, free bytes, dispatched load and active power."""
    ctx = PlacementContext(
        time=t,
        spinning=spinning_mask(bank, t),
        free=free,
        load=bank.load,
        active_power=bank.ap,
    )
    return policy.choose(ctx, size)


class CacheState:
    """The oracle's side of ``fastkernel._CacheState`` (``cache`` an
    object) or ``fastkernel._Walk`` (``cache`` ``None``): the run's cache
    object itself (driven through its Python ``lookup``/``admit``), a
    ``heapq`` of pending admissions, the bank, the placement policy, the
    live mapping and free bytes, the hit latency, and list copies of the
    per-file arrays.  Under an observer the cache's ``evict_hook``
    collects the victims of each admission until :meth:`write_back`
    removes it."""

    def __init__(
        self, cache, sizes, mapping, free, policy, bank, observe: bool,
        hit_latency: float = 0.0,
    ) -> None:
        self.cache = cache
        self.hit_latency = hit_latency
        self.bank = bank
        self.policy = policy
        self.sizes = sizes
        self.mapping = mapping
        self.free = free
        self.T = bank.T
        self.heap: list = []
        self.map_l = mapping.tolist()
        self.size_l = sizes.tolist()
        self.victims: Optional[list] = (
            [] if observe and cache is not None else None
        )
        if self.victims is not None:
            cache.evict_hook = self.victims.append

    def write_back(self) -> None:
        self.cache.evict_hook = None


def walk_state(sizes, mapping, free, policy, bank, observe) -> CacheState:
    """The oracle's side of ``fastkernel._Walk``: a run without a cache."""
    return CacheState(None, sizes, mapping, free, policy, bank, observe)


def complete(state, fid, t, starts, d, comp, resp, holds=None) -> None:
    """The completion formula and the service accounting of a walked
    batch, vectorized (formerly ``fastkernel._Run._complete`` and the
    scatter-adds of ``_Run.submit``): per request its access overhead and
    transfer time on the serving disk's own spec, its completion (start +
    overhead + transfer) into ``comp`` and its response (completion -
    arrival, plus the hit latency for a cache hit, plus its ``holds``
    entry) into ``resp``; then, per disk and in arrival order, seek and
    transfer seconds truncated at the horizon and a request count, added
    to the bank's accounting with ``np.add.at``.  A hit (disk -1) has no
    overhead and an infinite rate, so it completes at its start (its
    arrival), and bills nothing."""
    bank = state.bank
    D = len(bank.avail)
    oh = np.append(bank.oh_a, 0.0)[d]
    tr = state.sizes[fid] / np.append(bank.rate_a, np.inf)[d]
    comp[:] = (starts + oh) + tr
    r = comp - t
    if getattr(state, "cache", None) is not None:
        r += np.append(np.zeros(D), state.hit_latency)[d]
    if holds is not None:
        r += holds
    resp[:] = r
    T = bank.T
    served = d >= 0
    ds = d[served]
    np.add.at(bank.seek_t, ds, np.clip(T - starts, 0.0, oh)[served])
    np.add.at(
        bank.active_t, ds, np.clip(T - (starts + oh), 0.0, tr)[served]
    )
    np.add.at(bank.n_req, ds, 1)


def serve_coupled(
    state, fid, t_all, is_write, starts, d_req, comp, resp, base_index,
    obs=None, holds=None,
) -> None:
    """The Python walk: arrivals one at a time.  With a cache it drains
    the pending admissions due at or before each arrival first, and
    serves only misses and writes.  Placements go to the observer as one
    list, then the cache events, also when a placement raises.  Then
    :func:`complete` fills ``comp`` and ``resp`` and bills the batch;
    ``starts`` and ``d_req`` may be ``None``, like the walk's."""
    bank, policy, free = state.bank, state.policy, state.free
    mapping = state.mapping
    cache = state.cache
    cached = cache is not None
    lookup = cache.lookup if cached else None
    admit = cache.admit if cached else None
    heap = state.heap
    map_l = state.map_l
    size_l = state.size_l
    victims = state.victims
    oh_l = bank.oh_a.tolist()
    rate_l = bank.rate_a.tolist()
    T = bank.T
    events: Optional[list] = [] if obs is not None else None
    emit = events.append if events is not None else None
    placed: list = []
    start_l: list = []
    disk_l: list = []
    put_start = start_l.append
    put_disk = disk_l.append
    w_l = is_write.tolist() if is_write is not None else repeat(False)
    try:
        for i, (t, f, w) in enumerate(zip(t_all.tolist(), fid.tolist(), w_l)):
            while heap and heap[0][0] <= t:
                c_adm, _, hf, hs = heappop(heap)
                if emit is not None:
                    emit((c_adm, "admit", hf))
                admit(hf, hs)
                if victims:
                    for v in victims:
                        emit((c_adm, "evict", v))
                    victims.clear()
            if w:
                d = map_l[f]
                if d < 0:
                    size = size_l[f]
                    d = allocate_for_write(bank, policy, free, size, t)
                    if obs is not None:
                        placed.append((t, f, d))
                    map_l[f] = d
                    mapping[f] = d
                    free[d] -= size
                put_start(serve(bank, d, t, size_l[f] / rate_l[d]))
                put_disk(d)
                continue
            size = size_l[f]
            if cached:
                if lookup(f, size):
                    if emit is not None:
                        emit((t, "hit", f))
                    put_start(t)  # a hit "completes" at its arrival instant
                    put_disk(-1)
                    continue
                if emit is not None:
                    emit((t, "miss", f))
            d = map_l[f]
            if d < 0:
                raise SimulationError(
                    f"read of unallocated file {f}; allocate it first"
                )
            tr = size / rate_l[d]
            s = serve(bank, d, t, tr)
            put_start(s)
            put_disk(d)
            c = s + oh_l[d] + tr
            if cached and c < T:
                heappush(heap, (c, base_index + i, f, size))
    finally:
        if placed:
            obs.on_placements(placed)
        if events:
            obs.on_cache_events(events)
    s_all = np.array(start_l, dtype=float)
    d_all = np.array(disk_l, dtype=np.int64)
    if starts is not None:
        starts[:] = s_all
        d_req[:] = d_all
    complete(state, fid, t_all, s_all, d_all, comp, resp, holds)


def admit_pending(state: CacheState, obs=None) -> None:
    """The admissions still pending at the horizon that complete before
    it."""
    heap = state.heap
    admit = state.cache.admit
    victims = state.victims
    events: list = []
    try:
        while heap and heap[0][0] < state.T:
            c_adm, _, hf, hs = heappop(heap)
            if obs is not None:
                events.append((c_adm, "admit", hf))
            admit(hf, hs)
            if victims:
                events.extend((c_adm, "evict", v) for v in victims)
                victims.clear()
    finally:
        if events:
            obs.on_cache_events(events)


@contextmanager
def coupled_oracle():
    """Run every batch of the fast kernel through this module's Python
    pass instead of the compiled walk (whole-run twins), with or without
    a cache."""
    from repro.sim import fastkernel

    names = ("_Walk", "_CacheState", "_serve_coupled", "_admit_pending")
    saved = [getattr(fastkernel, name) for name in names]
    for name, value in zip(
        names, (walk_state, CacheState, serve_coupled, admit_pending)
    ):
        setattr(fastkernel, name, value)
    try:
        yield
    finally:
        for name, value in zip(names, saved):
            setattr(fastkernel, name, value)
