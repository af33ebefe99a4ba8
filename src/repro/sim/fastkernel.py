"""Batched fast-path simulation kernel (``StorageConfig(engine="fast")``).

The event kernel (:mod:`repro.sim.environment`) replays one request at a
time through generator processes: every arrival costs several heap
operations, event allocations and coroutine hops.  That is flexible — it
supports arbitrary process interleavings — but it makes large parameter
sweeps (the paper's Figures 2-6 grids) simulation bound.

This module computes the same runs directly, without the event loop.  The
drive semantics are exactly those of :class:`~repro.disk.drive.DiskDrive`
(paper Figure 1, generalized to DPM ladders): each disk is a FIFO queue
whose service start follows a Lindley recursion extended with the
idleness-threshold descent / wake transitions.  That per-disk recursion
needs only two kinds of global coupling, both handled here:

* **write allocation** — a write of a not-yet-mapped file inspects every
  disk's *current* spin state, free space and dispatched load through the
  configured write-placement rule (the paper's §1.1 ``spinning_best_fit``
  by default), then updates the mapping for later requests;
* **a shared whole-file cache** — reads look the cache up at arrival and
  admit on miss *completion*, so cache contents depend on the global
  interleaving of arrivals and completions across disks.

Engine coverage matrix
----------------------

=========================================  ==========  ===========
scenario feature                           ``fast``    ``event``
=========================================  ==========  ===========
read-only static mapping                   yes         yes
idleness thresholds (0, finite, inf)       yes         yes
write streams (placement on first touch)   yes         yes
pluggable write placement (full registry)  yes         yes
shared whole-file cache (any policy)       yes         yes
mixed read/write + cache                   yes         yes
online DPM policies (full registry)        yes         yes
multi-state DPM ladders (presets + user)   yes         yes
ladders under online control (scaled)      yes         yes
heterogeneous fleets (per-disk specs)      yes         yes
per-disk ladders / thresholds (fleets)     yes         yes
fleets + chunked / streaming metrics       yes         yes
observer hooks (``repro.obs``)             yes         yes
slack-aware request scheduling (registry)  yes         yes
array-backed streams (``.times``)          yes         yes
chunked streams (``.iter_chunks()``)       yes         yes
streaming metrics (bounded memory)         yes         API only
arbitrary iterator streams                 no          yes
custom per-request processes               no          yes
=========================================  ==========  ===========

Out-of-core streaming: :func:`simulate_fast_chunked` consumes any
``ChunkedStream`` (see :mod:`repro.workload.chunked` — chunked
generators, ``RequestStream.chunks(n)`` views, or
:class:`~repro.workload.trace.ChunkedTraceStream` readers) one chunk at
a time with full carry state across boundaries: per-disk queue/spin
recursion, ladder rung positions, write placements, the cache-admission
heap and the DPM controller's interval clock all persist, so chunked
runs are bit-identical to materializing the whole stream (the
differential harness's chunked axis asserts this at several chunk
sizes, including pathological ones).  Pair it with
``metrics_mode="streaming"`` to drop the per-request response array in
favor of bounded :class:`~repro.system.metrics.ResponseStats`
accumulators — peak memory then scales with the chunk size, not the
request count.

Multi-state ladders (``StorageConfig(dpm_ladder=...)`` — presets
``two_state``/``nap``/``drpm4`` in :data:`repro.disk.dpm.DPM_LADDERS`,
or any user :class:`~repro.disk.dpm.DpmLadder`) replay through the
per-rung :class:`_DiskBank` recursion.  There is one bank, as there is
one event-engine drive: a run without a ladder is the ``two_state``
ladder of each disk's spec, reported under the classic
:class:`~repro.disk.power.DiskState` keys through
:data:`~repro.disk.dpm.CLASSIC_STATES` (the map the event drive labels
its timeline with), and the seeded
randomized differential harness in ``tests/differential/`` holds both
engines to 1e-9 agreement across the full config space (disks x streams
x arrival shape x cache x write policy x DPM policy x ladder x fleet).

Every run describes its disks with one
:class:`~repro.disk.fleet.ResolvedFleet` (``StorageConfig.resolved_fleet``:
the ``mixed_generation`` preset, any :class:`~repro.disk.fleet.Fleet`, or
the uniform pool of ``StorageConfig(spec=...)``), and the bank indexes
every constant by disk: capacities, transfer rates, access overheads,
spin-up/-down durations, per-state power draws, idleness thresholds and
(when any slot carries one) DPM ladders.  A uniform pool is vectors of
identical entries, whose element-wise arithmetic is bit for bit the
paper's scalar recursion (``tests/regression/test_uniform_byte_identity.py``
pins this against recorded goldens).

Every registered write-placement policy is a row of the rule table
:data:`repro.system.placement.PLACEMENT_RULES`, and both kernels evaluate
that row on the same inputs: the event kernel with NumPy on its drives'
spin states, the fast kernel in its compiled walk on the bank's arrays
(spin view, free bytes, per-disk dispatched service seconds accumulated in
the same per-request order).  Allocation decisions — and hence final
file→disk mappings and :class:`~repro.system.placement.RoundRobin`'s
cursor — are byte-identical across engines;
``tests/experiments/test_engine_smoke.py`` iterates the registry to enforce
this.  A policy object outside the table (a subclass with its own
``choose``) runs on the event engine only: ``engine="fast"`` raises
:class:`~repro.errors.ConfigError` for it.

Execution strategy: one compiled walk serves every batch — a chunk, the
slice of one inside a control interval, or a block of scheduled releases:

* **the walk** (:mod:`repro.native`, C loaded through ``ctypes``):
  :func:`_serve_coupled` hands the whole batch to one C call, which takes
  the arrivals in order and serves each through its disk's queue and
  ladder recursion, writes its completion and response, and bills its
  seek and transfer time and its count to its disk.  It is bit for bit
  the per-request Python loop and the NumPy accounting
  ``tests/sim/serve_oracle.py`` keeps as the test oracle.  The bank's
  state lives only in its arrays, and there is no Python fallback: like
  every simulation on either engine, the walk needs a C compiler (the
  library is built once and cached under ``~/.cache/repro/native``);
* **writes**: only writes that *allocate* a new file couple the disks.
  The walk places such a write itself, by the policy's rule-table row
  against the bank's live spin state, free bytes and load, and debits the
  run's free bytes and mapping in place; placements leave the walk as one
  column block per batch.  It stops, and the run raises, at a write no
  disk has room for and at a read of an unmapped file, and it stops to
  hand back full record buffers;
* **a shared cache**: before each arrival the walk drains the min-heap of
  pending cache admissions (miss completions) due by then; it looks the
  file up in the cache, which lives in per-file-id arrays for the whole
  run (LRU, FIFO and CLOCK share one intrusive list in eviction order,
  LFU keeps frequencies and its lazy snapshot heap) and is loaded from
  and written back to the run's cache object; misses and writes are
  served, and each miss pushes its admission.  Cache events leave the
  walk as one column block per batch.  A run without a cache builds none
  of this state, and the walk serves every request;
* **control** (a dynamic ``StorageConfig.dpm_policy``): the run cuts
  each batch at the control-interval boundaries and walks each slice
  against a :class:`_DiskBank` holding *per-interval, per-disk*
  threshold vectors.  An idle gap is governed by the threshold in effect
  at the disk's drain instant (the event drive's already-armed timer), so
  the per-gap threshold is looked up from the drain time's interval.  At
  each boundary the interval's telemetry — responses in completion
  order, closed idle gaps as columns, queue depths — is handed to the
  shared :class:`~repro.control.controller.ThresholdController`, which
  returns the next threshold vector; the event engine's control process
  consumes identical telemetry, so every registered DPM policy
  simulates identically (~1e-9) on both engines.

Responses are put in completion order by the compiled bucket sort
(:func:`~repro.native.stable_order`) and energy is assembled at the end
(one :class:`_Run` method per phase), all truncated at the measurement
horizon exactly like the event kernel's cutoff.
Semantics mirror :class:`~repro.disk.drive.DiskDrive`: drives start IDLE
with the idleness timer armed at t=0, spin-downs are not abortable (a
request arriving mid-transition waits for spin-down + spin-up), and
requests arriving at or after the horizon are censored
(counted as neither arrivals nor completions).  Agreement with the event
kernel is tested to tight tolerances in ``tests/sim/test_fastkernel.py``;
the only differences are ~1 ulp float drift (the event loop accumulates
arrival times as ``now + (t - now)``) and tie-breaking at measure-zero
coincidences (a completion and an arrival at the exact same instant — the
fast kernel admits the completion first).

Select the engine per run via ``StorageConfig(engine="fast")``; the one
scenario class the fast kernel cannot express (streams that are neither
array-backed nor chunked) raises :class:`~repro.errors.ConfigError` — use
the default ``engine="event"`` for those.
"""

from __future__ import annotations

from ctypes import byref, pointer
from itertools import count
from math import inf
from typing import Dict, List, Optional

import numpy as np

from repro.cache import ClockCache, FIFOCache, LFUCache, LRUCache
from repro.control.telemetry import IdleGaps
from repro.disk.dpm import CLASSIC_STATES, make_dpm_ladder
from repro.disk.drive import WRITE
from repro.disk.fleet import ResolvedFleet
from repro.errors import ConfigError, SimulationError
from repro.native import (
    CoupledArgs, ServeArgs, bin_spans, coupled_core, stable_order,
)
from repro.obs.hooks import CacheEventBlock, PlacementBlock, active_observer
from repro.system.dispatcher import initial_free_bytes, validate_free_bytes
from repro.system.metrics import ResponseAccumulator, SimulationResult
from repro.system.placement import (
    WritePlacementPolicy,
    make_placement_policy,
    no_room,
    placement_policy_names,
    table_rule,
)

__all__ = [
    "fast_unsupported_reason",
    "simulate_fast",
    "simulate_fast_chunked",
]


def fast_unsupported_reason(stream) -> Optional[str]:
    """Why ``engine="fast"`` cannot run this scenario (``None`` if it can).

    Write streams, shared caches, control and scheduling all run on the
    fast kernel; the one requirement is a batchable stream — either
    array-backed (dense ``.times``/``.file_ids``, plus optional
    ``.kinds``) for :func:`simulate_fast`, or chunked
    (``.iter_chunks()`` with a ``duration``) for
    :func:`simulate_fast_chunked`.
    """
    if hasattr(stream, "times") and hasattr(stream, "file_ids"):
        return None
    if hasattr(stream, "iter_chunks") and getattr(stream, "duration", None) is not None:
        return None
    return (
        "the stream is not array-backed (needs .times/.file_ids) "
        "or chunked (needs .iter_chunks()/.duration)"
    )


#: Gap-log or span records one compiled-core call may buffer before it
#: hands them back (the walk then resumes where it stopped), so record
#: memory stays bounded on long batches.
_LOG_CHUNK = 1 << 14


class _DiskBank:
    """Per-disk queue and DPM-ladder state, carried from batch to batch.

    Evolves exactly the state the event kernel's drives evolve — per disk,
    the time it next falls idle plus per-rung park/descent/wake
    residencies — in the arrays the compiled walk of :mod:`repro.native`
    reads and writes in place (:func:`_serve_coupled` serves every batch
    through it), so these arrays are the bank's only state.  Like
    :class:`~repro.disk.drive.DiskDrive`, a run without a ladder runs the
    ``two_state`` ladder of paper Figure 1: one descent rung whose descent,
    park and wake are SPINDOWN, STANDBY and SPINUP
    (:data:`~repro.disk.dpm.CLASSIC_STATES`), with the classic recursion's
    arithmetic term for term.

    An idle gap walks the disk's threshold-scaled descent schedule
    (:meth:`~repro.disk.dpm.DpmLadder.scaled_entries`): fully traversed
    rungs bill their descent and park times, the rung occupied when the
    gap ends bills a (possibly horizon-clipped) descent plus
    park-until-arrival, and the wake is billed for its configured wake
    time.  Descents are not abortable.

    ``specs``, ``ladders`` and ``thresholds`` hold one entry per disk
    (a classic disk's ladder is its spec's ``two_state``; every threshold
    row is shape-checked).  ``thresholds`` is fixed for the run
    unless ``interval`` is given.  It is then the first row of the
    per-interval history a controlled run extends with
    :meth:`push_thresholds` at each control boundary, and the threshold
    governing a gap is the one in effect at the disk's *drain* instant
    (the event drive's already-armed timer).  By the time a gap's closing
    arrival is processed its drain interval has been reached, so the
    lookup always resolves.  A controlled bank also logs closed idle gaps
    as ``(disks, gaps, thresholds_at_drain)`` column blocks in arrival
    order (``gap_log``) for the control telemetry.  With
    ``log_spans`` (implied by ``interval``) every descent/park/wake
    episode is logged as a ``(disk, start, end)`` span per rung, for the
    per-interval power trace and for observers; logging never changes the
    arithmetic.  ``park_spans``, ``down_spans`` and ``wake_spans`` hold,
    per rung, a list of ``(disks, starts, ends)`` column blocks in the
    order the spans were logged: the walk's key-sorted record buffers,
    copied out by :func:`_take_records`, then the tail pass's.

    Each threshold row's descent schedules are built per distinct ladder
    in one array operation over the row's thresholds
    (:meth:`~repro.disk.dpm.DpmLadder.scaled_entries_array`).

    Residencies are disk-major (``park_t[d, i]``), each row padded to the
    deepest ladder in the pool.
    """

    def __init__(
        self,
        specs,
        ladders,
        thresholds,
        horizon: float,
        interval: Optional[float] = None,
        log_spans: bool = False,
    ) -> None:
        num_disks = len(specs)
        ladders = tuple(ladders)
        self.oh_a = np.array([s.access_overhead for s in specs], dtype=float)
        self.rate_a = np.array([s.transfer_rate for s in specs], dtype=float)
        self.ap = np.array([s.active_power for s in specs], dtype=float)
        self.T = horizon
        self.ladders = ladders
        self.R = [len(l.rungs) for l in ladders]
        self.maxR = max(self.R)
        self.dn = [[r.down_time for r in l.rungs] for l in ladders]
        self.wk = [[r.wake_time for r in l.rungs] for l in ladders]
        # Per-disk state.  ``avail`` is the time each disk next falls idle.
        # ``load`` is the cumulative dispatched service seconds, accumulated
        # one request at a time (same order as the event dispatcher's
        # ledger, so load-comparing placement policies see bit-equal
        # values).  ``pv[d]`` is disk ``d``'s ``avail`` as of the *start*
        # of instant ``pt[d]`` (the arrival time of its most recent
        # serve): the event kernel's drive processes do not run between
        # same-instant submissions — the dispatcher submits a whole
        # release batch in one resumption — so a placement at time t must
        # see the spin states as they stood when the instant began (the
        # walk's spin view reads it).
        self._fst = np.zeros((4, num_disks))
        self.avail, self.load, self.pt, self.pv = self._fst
        self.pt[:] = -inf
        self._ust = np.zeros((2, num_disks), dtype=np.int64)
        self.n_up, self.n_down = self._ust
        # Residencies per (disk, rung).  Rung 0's park time is the horizon
        # residual, computed at the end; rungs past a disk's own ladder
        # stay 0.
        self._rst = np.zeros((3, num_disks, self.maxR))
        self.park_t, self.down_t, self.wake_t = self._rst
        # Service accounting the walk bills in arrival order: seek and
        # transfer seconds before the horizon, and requests served.
        self._svc = np.zeros((2, num_disks))
        self.seek_t, self.active_t = self._svc
        self.n_req = np.zeros(num_disks, dtype=np.int64)
        # The disks of each distinct ladder (fleets share ladder objects),
        # whose schedules one array operation builds.
        groups: Dict[int, tuple] = {}
        for d, l in enumerate(ladders):
            groups.setdefault(id(l), (l, []))[1].append(d)
        self._ladder_disks = [(l, np.array(ds)) for l, ds in groups.values()]
        # Descent schedules: one (disk, rung) matrix per threshold row,
        # padded with inf past each disk's ladder (a one-rung ladder's
        # schedule is (0, inf), hence at least 2 wide).  The walk's spin
        # view reads each disk's last entry and last descent.
        width = max(self.maxR, 2)
        self._disks = np.arange(num_disks)
        rows = 1 if interval is None else 8
        self._ent = np.full((rows, num_disks, width), inf)
        if interval is None:
            self.ci = 0.0
            self.gap_log: Optional[List[tuple]] = None
            self._th: Optional[np.ndarray] = None
        else:
            self.ci = float(interval)
            self.gap_log = []
            log_spans = True
            self._th = np.empty((rows, num_disks))
        self.k = 0
        if log_spans:
            # Keyed by rung index across the whole pool (entries carry the
            # disk id); maxR covers the deepest ladder in the mix.
            self.park_spans, self.down_spans, self.wake_spans = (
                [[] for _ in range(self.maxR)] for _ in range(3)
            )
        else:
            self.park_spans = self.down_spans = self.wake_spans = None
        self._init_core(num_disks)
        self._set_schedule_row(0, thresholds)

    def _init_core(self, num_disks: int) -> None:
        """Constant arrays and record buffers the compiled core reads and
        writes, bound into the bank's ``ServeArgs``."""
        maxR = self.maxR
        self._R_a = np.asarray(self.R, dtype=np.int64)
        self._dn_a = np.zeros((num_disks, maxR))
        self._wk_a = np.zeros((num_disks, maxR))
        for d in range(num_disks):
            self._dn_a[d, : self.R[d]] = self.dn[d]
            self._wk_a[d, : self.R[d]] = self.wk[d]
        self._key_n = np.zeros(3 * maxR, dtype=np.int64)

        def ptrs(rows):
            return [row.ctypes.data for row in rows]

        avail, load, pt, pv = ptrs(self._fst)
        n_up, n_down = ptrs(self._ust)
        park, down, wake = ptrs(self._rst)
        seek_t, active_t = ptrs(self._svc)
        args = self._args = ServeArgs(
            D=num_disks, maxR=maxR, W=self._ent.shape[2], T=self.T,
            ci=self.ci, oh=self.oh_a.ctypes.data, R=self._R_a.ctypes.data,
            dn=self._dn_a.ctypes.data, wk=self._wk_a.ctypes.data,
            avail=avail, load=load, pt=pt, pv=pv, n_up=n_up, n_down=n_down,
            park=park, down=down, wake=wake, seek_t=seek_t,
            active_t=active_t, n_req=self.n_req.ctypes.data,
            key_n=self._key_n.ctypes.data,
        )
        if self.gap_log is not None:
            # Arrival-order records: gap, threshold; disk.
            self._gaps = np.empty((2, _LOG_CHUNK))
            self._gap_d = np.empty(_LOG_CHUNK, dtype=np.int64)
            args.gap_cap = _LOG_CHUNK
            args.gap_g, args.gap_th = ptrs(self._gaps)
            args.gap_d = self._gap_d.ctypes.data
        if self.park_spans is not None:
            # Raw records (key, disk, start, end), then sorted by key; room
            # for at least one request's spans, so every call progresses.
            cap = max(_LOG_CHUNK, 2 * maxR)
            self._span_i = np.empty((3, cap), dtype=np.int64)
            self._span_f = np.empty((4, cap))
            args.span_cap = cap
            args.span_key, args.span_d, args.out_d = ptrs(self._span_i)
            args.span_s, args.span_e, args.out_s, args.out_e = ptrs(
                self._span_f
            )

    def _set_schedule_row(self, k: int, th) -> None:
        """Fill row ``k`` of the schedule tables with the descent schedules
        under the per-disk thresholds ``th`` (growing the tables when a
        controlled run outlives their capacity) and point the core at
        them.  A one-rung ladder keeps the ``inf`` second entry its row
        was filled with, so no gap ever descends."""
        th = np.asarray(th, dtype=float)
        if th.shape != self._disks.shape:
            # A controlled bank's rows come from a (possibly user) policy.
            raise ConfigError(
                f"threshold row has shape {th.shape}, expected "
                f"({self._disks.size},)"
            )
        if k == len(self._ent):
            self._ent = np.concatenate((self._ent, np.full_like(self._ent, inf)))
            self._th = np.concatenate((self._th, np.empty_like(self._th)))
        ent = self._ent[k]
        for ladder, disks in self._ladder_disks:
            ent[disks, : len(ladder.rungs)] = ladder.scaled_entries_array(
                th[disks]
            )
        args = self._args
        args.ent = self._ent.ctypes.data
        args.k = k
        if self._th is not None:
            self._th[k] = th
            args.th = self._th.ctypes.data

    def push_thresholds(self, thresholds: np.ndarray) -> None:
        """Apply the vector decided at the boundary entering interval k+1."""
        self.k += 1
        self._set_schedule_row(self.k, thresholds)

    def _rows(self, drain: np.ndarray):
        """Schedule row governing a gap that began at ``drain`` (per disk):
        the drain instant's control interval, clamped to the last row
        pushed; row 0 on a fixed bank."""
        if self._th is None:
            return 0
        q = drain / self.ci
        return np.where(q < self.k, q, self.k).astype(np.int64)

    def apply_tail(self):
        """Trailing-idleness pass at the horizon: every disk (including
        ones that never served a request) descends through each rung whose
        entry falls before the horizon, with parks clipped at it.  Returns
        per-disk ``(spinups, spindowns)`` arrays."""
        T = self.T
        spans = self.park_spans is not None
        # The (disk, start, end) spans this pass logs, per (log, rung).
        logs = (self.down_spans, self.park_spans)
        tail: Dict[tuple, list] = {}
        avail = self.avail.tolist()
        rows = self._rows(self.avail)
        schedules = self._ent[rows, self._disks].tolist()
        n_down = self.n_down.tolist()
        park, down, _ = self._rst.tolist()
        for d, a in enumerate(avail):
            entries = schedules[d]
            R = self.R[d]
            dn = self.dn[d]
            down_t = down[d]
            park_t = park[d]
            for i in range(1, R):
                ds = a + entries[i]
                if ds >= T:
                    break
                de = ds + dn[i]
                n_down[d] += 1
                down_t[i] += min(de, T) - ds
                if spans:
                    tail.setdefault((0, i), []).append((d, ds, de))
                pe = (a + entries[i + 1]) if i + 1 < R else T
                if pe > T:
                    pe = T
                if pe > de:
                    park_t[i] += pe - de
                    if spans:
                        tail.setdefault((1, i), []).append((d, de, pe))
        for (log, i), rows in tail.items():
            logs[log][i].append(tuple(map(np.array, zip(*rows))))
        self.n_down[:] = n_down
        self.park_t[:] = park
        self.down_t[:] = down
        return self.n_up.copy(), self.n_down.copy()


def _take_records(bank: _DiskBank) -> None:
    """Append the gap-log and span records the walk holds to the bank's
    logs, and empty its buffers.  The gap log gains one column block of
    this take's gaps in arrival order.  Spans come back sorted by (kind,
    rung), in arrival order inside each key: every span log ends up in
    the order per-request serving appends to it, and
    :func:`_flush_bank_spans` hands an observer each in turn (see
    :mod:`repro.obs.hooks`).  A span log gains one column block per key:
    views into one copy of the walk's sorted buffers."""
    args = bank._args
    if args.n_gap:
        m = args.n_gap
        g, th = bank._gaps[:, :m].copy()
        bank.gap_log.append((bank._gap_d[:m].copy(), g, th))
        args.n_gap = 0
    if args.n_span:
        m = args.n_span
        logs = (bank.park_spans, bank.down_spans, bank.wake_spans)
        d_c = bank._span_i[2, :m].copy()
        s_c, e_c = bank._span_f[2:, :m].copy()
        lo = 0
        for key, c in enumerate(bank._key_n.tolist()):
            if c:
                kind, i = divmod(key, bank.maxR)
                hi = lo + c
                logs[kind][i].append((d_c[lo:hi], s_c[lo:hi], e_c[lo:hi]))
                lo = hi
        args.n_span = 0


#: Cache classes the coupled walk runs, by their policy code in ``serve.c``.
_LRU, _FIFO, _CLOCK, _LFU = range(4)
_CACHE_POLICIES = {
    LRUCache: _LRU, FIFOCache: _FIFO, ClockCache: _CLOCK, LFUCache: _LFU
}

#: ``coupled_args.stop`` codes (``serve.c``).
_STOP_FULL, _STOP_NO_ROOM, _STOP_UNMAPPED, _STOP_BAD_FILE = 1, 2, 3, 4

#: Rule-table vocabulary -> its code in ``serve.c``.
_KEYS = {"free": 0, "id": 1, "load": 2, "power": 3, "cursor": 4}
_FALLBACKS = {None: 0, "worst_fit": 1, "best_fit": 2}

_ADMISSION = np.dtype(
    [("c", float), ("seq", np.int64), ("f", np.int64), ("size", float)]
)
_SNAPSHOT = np.dtype([("freq", np.int64), ("seq", np.int64), ("f", np.int64)])


class _Walk:
    """A run's binding of the compiled walk: the bank it serves through,
    the catalog sizes and transfer rates it reads, the write policy's
    rule-table row, and the mapping and free bytes its placements update
    in place (recorded as columns with ``observe``).  Each batch points it
    at its own arrays (:func:`_serve_coupled`).  A run without a cache
    walks with this alone, and every request is served."""

    def __init__(
        self, sizes, mapping, free, policy: WritePlacementPolicy,
        bank: _DiskBank, observe: bool,
    ) -> None:
        rule = table_rule(policy)
        if rule is None:
            raise ConfigError(
                f"engine='fast' runs the registered write placement "
                f"policies {placement_policy_names()}; got a "
                f"{type(policy).__name__} (use engine='event')"
            )
        for name, arr, dtype, n in (
            ("sizes", sizes, float, sizes.size),
            ("mapping", mapping, np.int64, sizes.size),
            ("free", free, float, len(bank.avail)),
        ):
            # The walk reads and writes through these pointers.
            if arr.shape != (n,) or arr.dtype != dtype or not arr.flags.c_contiguous:
                raise SimulationError(
                    f"walk {name} must be a contiguous {n}-element "
                    f"{np.dtype(dtype).name} array"
                )
        self.walk, self._order = coupled_core()
        self.bank = bank
        self.sizes = sizes
        self.mapping = mapping
        self.policy = policy
        cursor = rule.key == "cursor"
        self.args = CoupledArgs(
            s=pointer(bank._args), nf=int(sizes.size),
            size=sizes.ctypes.data, map=mapping.ctypes.data,
            rate=bank.rate_a.ctypes.data, head=-1, tail=-1,
            free=free.ctypes.data, ap=bank.ap.ctypes.data,
            pl_spin=rule.candidates == "spinning", pl_key=_KEYS[rule.key],
            pl_max=rule.direction == "max",
            pl_fallback=_FALLBACKS[rule.fallback],
            cursor=policy._cursor if cursor else 0,
        )
        self.ref_args = byref(self.args)
        self._cursor = cursor
        self._keep = free
        if observe:
            # At most one placement per arrival, so one slot always lets
            # the walk progress.
            self.pl_t = np.empty(_LOG_CHUNK)
            self.pl_f = np.empty(_LOG_CHUNK, dtype=np.int64)
            self.pl_d = np.empty(_LOG_CHUNK, dtype=np.int64)
            args = self.args
            args.pl_cap = _LOG_CHUNK
            args.pl_t = self.pl_t.ctypes.data
            args.pl_f = self.pl_f.ctypes.data
            args.pl_d = self.pl_d.ctypes.data

    def reserve(self, n: int) -> None:
        """Room for ``n`` more arrivals' pending state (none without a
        cache)."""

    def take_placements(self):
        """The placements the walk has recorded, as copied ``(times, file
        ids, disks)`` columns; empties the buffer."""
        m = self.args.pl_n
        self.args.pl_n = 0
        return self.pl_t[:m].copy(), self.pl_f[:m].copy(), self.pl_d[:m].copy()

    def sync_policy(self) -> None:
        """Write the round-robin cursor back into the policy object."""
        if self._cursor:
            self.policy._cursor = self.args.cursor


class _CacheState(_Walk):
    """A run's shared cache and pending admissions, held for the compiled
    walk in per-file-id arrays.

    Loaded from the run's cache object (an :class:`~repro.cache.LRUCache`,
    :class:`~repro.cache.FIFOCache`, :class:`~repro.cache.ClockCache` or
    :class:`~repro.cache.LFUCache`, possibly pre-filled) when the run
    starts, and written back to it by :meth:`write_back` when the run ends
    or raises: resident files in eviction order, ``used``,
    :class:`~repro.cache.CacheStats` and the policy's bookkeeping (CLOCK
    reference bits; LFU frequencies, its lazy snapshot heap in ``heapq``
    layout and its sequence counter).  LRU, FIFO and CLOCK share one
    intrusive list in eviction order; LFU keeps its insertion order in the
    same list.  Pending admissions — a min-heap on (completion, global
    arrival seq) — carry across batches.  A hit responds in
    ``hit_latency``.  With ``observe`` the walk records cache events into
    column buffers.
    """

    def __init__(
        self, cache, sizes, mapping, free, policy: WritePlacementPolicy,
        bank: _DiskBank, observe: bool, hit_latency: float = 0.0,
    ) -> None:
        code = _CACHE_POLICIES.get(type(cache))
        if code is None:
            raise ConfigError(
                f"engine='fast' runs the lru, fifo, clock and lfu caches; "
                f"got a {type(cache).__name__}"
            )
        super().__init__(sizes, mapping, free, policy, bank, observe)
        self.cache = cache
        resident = list(cache._sizes.items())
        ids = [f for f, _ in resident]
        if code == _LFU:
            ids += [f for _, _, f in cache._heap]
        elif code == _CLOCK:
            ids += list(cache._referenced)
        if not all(isinstance(f, (int, np.integer)) and f >= 0 for f in ids):
            raise ConfigError(
                "engine='fast' needs the cache's file ids to be "
                "non-negative integers"
            )
        nf = int(sizes.size)
        ns = max([nf, *(int(f) + 1 for f in ids)])
        self.csize = np.zeros(ns)
        self.nxt = np.full(ns, -1, dtype=np.int64)
        self.prv = np.full(ns, -1, dtype=np.int64)
        self.res = np.zeros(ns, dtype=np.uint8)
        self.ref = np.zeros(ns, dtype=np.uint8)
        self.freq = np.zeros(ns, dtype=np.int64)
        self.ad = np.empty(64, dtype=_ADMISSION)
        self.lh = np.empty(64 if code == _LFU else 0, dtype=_SNAPSHOT)
        st = cache.stats
        args = self.args
        args.cached, args.policy = 1, code
        args.hit_lat = hit_latency
        args.capacity, args.count, args.used = (
            cache.capacity, len(resident), cache.used
        )
        args.hits, args.misses = st.hits, st.misses
        args.insertions, args.evictions = st.insertions, st.evictions
        args.rejected = st.rejected
        args.bytes_hit, args.bytes_missed = st.bytes_hit, st.bytes_missed
        if resident:
            order = np.asarray(ids[: len(resident)], dtype=np.int64)
            self.csize[order] = [size for _, size in resident]
            self.res[order] = 1
            self.nxt[order[:-1]] = order[1:]
            self.prv[order[1:]] = order[:-1]
            args.head, args.tail = int(order[0]), int(order[-1])
        if code == _CLOCK and cache._referenced:
            self.ref[list(cache._referenced)] = 1
        if code == _LFU:
            # The walk relies on LFUCache's invariant: every resident file
            # has a snapshot of its current frequency on the heap.
            snaps = {(n, f) for n, _, f in cache._heap}
            if set(cache._freq) != set(cache._sizes) or any(
                (n, f) not in snaps for f, n in cache._freq.items()
            ):
                raise ConfigError(
                    "the LFU cache's frequencies and snapshot heap do not "
                    "match its resident files"
                )
            for f, n in cache._freq.items():
                self.freq[f] = n
            self._reserve_snapshots(len(cache._heap))
            self.lh[: len(cache._heap)] = cache._heap
            args.lh_n = len(cache._heap)
            args.lh_seq = next(cache._seq)
        self._bind()
        if observe:
            # Room for one admission evicting every resident file.
            cap = max(_LOG_CHUNK, ns + 2)
            self.ev_t = np.empty(cap)
            self.ev_k = np.empty(cap, dtype=np.int8)
            self.ev_f = np.empty(cap, dtype=np.int64)
            args.ev_cap = cap
            args.ev_t = self.ev_t.ctypes.data
            args.ev_k = self.ev_k.ctypes.data
            args.ev_f = self.ev_f.ctypes.data

    def _bind(self) -> None:
        """Point the walk at the arrays it may have outgrown."""
        args = self.args
        for name in ("csize", "nxt", "prv", "res", "ref", "freq", "ad", "lh"):
            setattr(args, name, getattr(self, name).ctypes.data)
        args.ad_cap = self.ad.size
        args.lh_cap = self.lh.size

    def _reserve_snapshots(self, need: int) -> None:
        if need > self.lh.size:
            grown = np.empty(max(need, 2 * self.lh.size), dtype=_SNAPSHOT)
            grown[: self.args.lh_n] = self.lh[: self.args.lh_n]
            self.lh = grown

    def reserve(self, n: int) -> None:
        """Heap room for ``n`` more arrivals: each pushes at most one
        admission, and each lookup or admission one LFU snapshot."""
        args = self.args
        need = args.ad_n + n
        if need > self.ad.size:
            grown = np.empty(max(need, 2 * self.ad.size), dtype=_ADMISSION)
            grown[: args.ad_n] = self.ad[: args.ad_n]
            self.ad = grown
        if args.policy == _LFU:
            self._reserve_snapshots(args.lh_n + args.ad_n + 2 * n)
        self._bind()

    def take_events(self):
        """The cache events the walk has collected, as copied ``(times,
        codes, file ids)`` columns; empties the buffer."""
        m = self.args.ev_n
        self.args.ev_n = 0
        return self.ev_t[:m].copy(), self.ev_k[:m].copy(), self.ev_f[:m].copy()

    def write_back(self) -> None:
        """Store the cache state into the run's cache object (its own
        containers, updated in place: ``LRUCache`` holds a bound method of
        its ordered map)."""
        cache, args = self.cache, self.args
        order = np.empty(args.count, dtype=np.int64)
        self._order(self.ref_args, order.ctypes.data)
        ids = order.tolist()
        sizes = cache._sizes
        sizes.clear()
        sizes.update(zip(ids, self.csize[order].tolist()))
        cache.used = args.used
        st = cache.stats
        st.hits, st.misses = args.hits, args.misses
        st.insertions, st.evictions = args.insertions, args.evictions
        st.rejected = args.rejected
        st.bytes_hit, st.bytes_missed = args.bytes_hit, args.bytes_missed
        if args.policy == _CLOCK:
            cache._referenced.clear()
            cache._referenced.update(np.flatnonzero(self.ref).tolist())
        elif args.policy == _LFU:
            cache._freq.clear()
            cache._freq.update(zip(ids, self.freq[order].tolist()))
            cache._heap[:] = [
                tuple(x) for x in self.lh[: args.lh_n].tolist()
            ]
            cache._seq = count(args.lh_seq)


def _columns(parts: list) -> tuple:
    """Column blocks (tuples of equal-length columns) joined column by
    column; a single block as it is."""
    if len(parts) == 1:
        return tuple(parts[0])
    return tuple(np.concatenate(c) for c in zip(*parts))


def _serve_coupled(
    state: _Walk,
    fid: np.ndarray,
    t_all: np.ndarray,
    is_write: Optional[np.ndarray],
    starts: Optional[np.ndarray],
    d_req: Optional[np.ndarray],
    comp: np.ndarray,
    resp: np.ndarray,
    base_index: int,
    obs=None,
    holds: Optional[np.ndarray] = None,
) -> None:
    """Serve one time-sorted batch (chunk, control interval or release
    batch) in one compiled walk in arrival order, filling ``comp`` and
    ``resp`` in place, and ``starts`` and ``d_req`` (the serving disk, -1
    for a cache hit) unless both are ``None``.

    A request is served through its disk's queue and ladder recursion
    (transfer time ``size / rate``; a write of an unmapped file once the
    walk has placed it), completes at start + overhead + transfer, responds
    from its arrival plus its ``holds`` entry (release - arrival, like the
    event dispatcher's response_offset), and bills its seek and transfer
    time before the horizon to its disk.  With a shared cache (``state`` a
    :class:`_CacheState`) a hit completes at its arrival, responds in the
    hit latency and bills nothing; a miss schedules an admission at its
    completion, and before each arrival the walk drains the admissions due
    in (completion, global seq) order, reproducing the event kernel's
    interleaving: ties admit first, and admissions at or after the horizon
    never happen (the event kernel's URGENT stop pre-empts them).
    ``base_index`` keeps the admission tie-break global.

    The walk stops at a write no disk has room for and at a read of an
    unmapped file (raised here) and at a full record buffer.  Under an
    observer the batch's placements go to ``obs.on_placements`` as one
    :class:`~repro.obs.hooks.PlacementBlock`, then its cache events to
    ``obs.on_cache_events`` as one
    :class:`~repro.obs.hooks.CacheEventBlock`, even when the pass raises.
    """
    n = int(t_all.size)
    outputs = [(comp, float), (resp, float)]
    if starts is not None or d_req is not None:
        outputs += [(starts, float), (d_req, np.int64)]
    for out, dtype in outputs:
        # The walk writes through these pointers.
        if getattr(out, "shape", None) != (n,) or out.dtype != dtype or (
            not out.flags.c_contiguous
        ):
            raise SimulationError(
                f"walk outputs must be contiguous {n}-element "
                f"{np.dtype(dtype).name} arrays"
            )
    fid = np.ascontiguousarray(fid, dtype=np.int64)
    t_all = np.ascontiguousarray(t_all, dtype=float)
    w = None if is_write is None else np.ascontiguousarray(is_write, np.uint8)
    if holds is not None:
        holds = np.ascontiguousarray(holds, dtype=float)
    if fid.shape != (n,) or any(
        x is not None and x.shape != (n,) for x in (w, holds)
    ):
        raise SimulationError(
            f"batch arrays differ in length: {n} times, {fid.size} file ids"
            + ("" if w is None else f", {w.size} kinds")
            + ("" if holds is None else f", {holds.size} holds")
        )
    state.reserve(n)
    args = state.args
    args.n, args.base, args.final = n, base_index, 0
    args.fid, args.t, args.comp, args.resp = (
        a.ctypes.data for a in (fid, t_all, comp, resp)
    )
    args.w, args.hold, args.starts, args.dreq = (
        None if a is None else a.ctypes.data for a in (w, holds, starts, d_req)
    )
    placed: list = []
    events: list = []
    pos = 0
    try:
        while True:
            pos = state.walk(state.ref_args, pos)
            stop = args.stop
            _take_records(state.bank)
            if args.pl_n:
                placed.append(state.take_placements())
            if args.ev_n:
                events.append(state.take_events())
            if stop == _STOP_FULL:
                continue
            if not stop:
                break
            f = int(fid[pos])
            if stop == _STOP_NO_ROOM:
                raise no_room(float(state.sizes[f]))
            if stop == _STOP_UNMAPPED:
                raise SimulationError(
                    f"read of unallocated file {f}; allocate it first"
                )
            if stop == _STOP_BAD_FILE:
                raise SimulationError(
                    f"request for file {f} outside the "
                    f"{state.sizes.size}-file catalog"
                )
            raise SimulationError(
                f"file {f} is mapped to disk {int(state.mapping[f])}, outside "
                f"the {len(state.bank.avail)}-disk pool"
            )
    finally:
        state.sync_policy()
        if placed:
            obs.on_placements(PlacementBlock(*_columns(placed)))
        if events:
            obs.on_cache_events(CacheEventBlock(*_columns(events)))


def _part(a: Optional[np.ndarray], sl: slice) -> Optional[np.ndarray]:
    """``a[sl]``, or ``None`` for a column the batch does not have."""
    return None if a is None else a[sl]


def _admit_pending(state: _CacheState, obs=None) -> None:
    """Run the admissions still pending at the horizon that complete
    before it (admissions at or after ``T`` never happen: the event
    kernel's stop event pre-empts completions at ``T``)."""
    state.reserve(0)
    args = state.args
    args.n, args.final = 0, 1
    parts: list = []
    try:
        while True:
            state.walk(state.ref_args, 0)
            if args.ev_n:
                parts.append(state.take_events())
            if not args.stop:
                break
    finally:
        if parts:
            obs.on_cache_events(CacheEventBlock(*_columns(parts)))



def _bad_releases(releases: np.ndarray, times: np.ndarray) -> None:
    """Raise for a scheduler block whose releases are not one number at or
    after each arrival (the event engine checks each release the same way)."""
    if releases.shape != times.shape:
        raise SimulationError(
            f"request scheduler returned {releases.size} releases for "
            f"{times.size} arrivals"
        )
    bad = int(np.argmin(releases >= times))
    raise SimulationError(
        f"request scheduler released a request arriving at {times[bad]} at "
        f"{releases[bad]}; a release must be at or after its arrival"
    )



def _interval_edges(interval: float, horizon: float) -> List[float]:
    """The control-interval grid ``[0, ci, 2ci, ..., T]``, the run's one
    interval clock: a controlled run closes interval ``k`` at
    ``edges[k + 1]`` and bins its power trace on the same floats, so the
    bins align with ``dpm.records`` bit-for-bit."""
    edges = [0.0]
    k = 0
    while edges[-1] < horizon:
        edges.append(min((k + 1) * interval, horizon))
        k += 1
    return edges


class _SpanBinner:
    """Incremental per-interval per-disk state-overlap accumulator.

    Chunked controlled runs cannot keep every logged state span until the
    end (the span logs grow with the request count), so spans are folded
    into fixed-size ``(K, D)`` overlap matrices between chunks and the
    logs cleared.  Each fold bins one batch of span columns in the
    compiled core (:func:`repro.native.bin_spans`).  The first batch
    folded under a key is stored as-is, so a monolithic (single-chunk)
    run reproduces a one-shot binning bit-for-bit; later batches are
    added to it, which only regroups the float sums — the
    chunked-vs-monolithic differential axis therefore holds the power
    trace to 1e-9 relative rather than exact.
    """

    __slots__ = ("edges", "num_disks", "_bins")

    def __init__(self, edges: np.ndarray, num_disks: int) -> None:
        self.edges = edges
        self.num_disks = num_disks
        self._bins: dict = {}

    def add(self, key, disks, starts, ends) -> None:
        mat = bin_spans(disks, starts, ends, self.edges, self.num_disks)
        prev = self._bins.get(key)
        if prev is None:
            self._bins[key] = mat
        else:
            prev += mat

    def get(self, key) -> np.ndarray:
        mat = self._bins.get(key)
        if mat is None:
            return np.zeros((int(self.edges.size) - 1, self.num_disks))
        return mat


#: Span kind -> the rung attribute holding its power draw.
_SPAN_POWER = {"park": "power", "down": "down_power", "wake": "wake_power"}


def _span_kinds(classic: bool) -> tuple:
    """Per-rung span kinds in folding and emission order: the classic
    drive's (spindown, spinup, standby), or a ladder's (park, descent,
    wake) — each keeps its historical float summation order."""
    return ("down", "wake", "park") if classic else ("park", "down", "wake")


def _flush_bank_spans(
    binner: Optional[_SpanBinner], bank, classic: bool, obs=None
) -> None:
    """Drain a bank's logged transition spans and clear them: fold them
    into the binner (controlled runs), emit them to an observer (clipped
    at the horizon, like all accounting, and named by
    :data:`CLASSIC_STATES` on a ``classic`` run), or both.  Called
    between chunks and once at the end of the run, so span-log memory
    stays bounded by the chunk size and observer emission order is
    deterministic for any chunking.
    """
    T = bank.T
    ladders = bank.ladders
    for i in range(1, bank.maxR):
        for prefix in _span_kinds(classic):
            blocks = getattr(bank, f"{prefix}_spans")[i]
            if not blocks:
                continue
            columns = _columns(blocks)
            blocks.clear()
            if binner is not None:
                binner.add((prefix, i), *columns)
            if obs is not None:
                # Each disk's label for this (kind, rung) is built once.
                names: Dict[int, str] = {}
                on_state_span = obs.on_state_span
                for d, s, e in zip(*(c.tolist() for c in columns)):
                    if s >= T:
                        continue
                    name = names.get(d)
                    if name is None:
                        name = names[d] = _span_name(
                            prefix, ladders[d].rungs[i].name, classic
                        )
                    on_state_span(d, name, s, e if e < T else T)


def _span_name(prefix: str, rung: str, classic: bool) -> str:
    """An observer's label for a ``prefix`` span at ``rung``: the rung
    name, ``down:``/``wake:`` plus it, or on a ``classic`` run the
    :data:`CLASSIC_STATES` name."""
    name = rung if prefix == "park" else f"{prefix}:{rung}"
    return CLASSIC_STATES[name].value if classic else name


def _power_from_binner(
    binner: _SpanBinner, ladders, specs, classic: bool
) -> np.ndarray:
    """Per-interval per-disk mean power from the binned state overlaps.

    The event engine diffs live drive energies at each boundary; this
    reconstructs the same physical quantity from the run's state spans
    (seek/active per request, logged descent/park/wake episodes per rung,
    rung-0 park as the window residual), so the two traces agree to
    float-accumulation noise.  Powers are per-disk row vectors (each disk
    bills its own spec and ladder); a disk whose ladder is shallower than
    rung ``i`` has zero overlap in that column, so its placeholder power
    never contributes.
    """
    windows = np.diff(binner.edges)
    seek = binner.get("seek")
    active = binner.get("active")
    occupied = seek + active
    seek_p = np.array([s.seek_power for s in specs], dtype=float)
    active_p = np.array([s.active_power for s in specs], dtype=float)
    energy = seek_p[None, :] * seek + active_p[None, :] * active
    max_r = max(len(l.rungs) for l in ladders)

    def rung_p(i, attr):
        return np.array(
            [
                getattr(l.rungs[i], attr) if i < len(l.rungs) else 0.0
                for l in ladders
            ],
            dtype=float,
        )

    for i in range(1, max_r):
        for prefix in _span_kinds(classic):
            overlap = binner.get((prefix, i))
            occupied = occupied + overlap
            energy = energy + rung_p(i, _SPAN_POWER[prefix])[None, :] * overlap
    idle = np.clip(windows[:, None] - occupied, 0.0, None)
    p0 = np.array([l.rungs[0].power for l in ladders], dtype=float)
    energy = energy + p0[None, :] * idle
    return energy / windows[:, None]


def simulate_fast(
    sizes: np.ndarray,
    mapping: np.ndarray,
    fleet: ResolvedFleet,
    stream,
    duration: float,
    label: str = "run",
    cache=None,
    cache_hit_latency: float = 0.0,
    usable_capacity=None,
    write_policy=None,
    dpm=None,
    metrics_mode: str = "full",
    observer=None,
    scheduler=None,
) -> SimulationResult:
    """Simulate ``stream`` against ``mapping`` without the event loop.

    Parameters mirror what :class:`~repro.system.storage.StorageSystem`
    assembles: ``sizes``/``mapping`` are dense per-file arrays, ``fleet``
    is the run's :class:`~repro.disk.fleet.ResolvedFleet` (per-disk
    specs, DPM ladders and idleness thresholds, ``inf`` disabling
    spin-down; ``StorageConfig.resolved_fleet`` builds it) and
    ``duration`` the measurement horizon.  ``cache`` is an optional
    :class:`~repro.cache.LRUCache`, :class:`~repro.cache.FIFOCache`,
    :class:`~repro.cache.ClockCache` or :class:`~repro.cache.LFUCache`
    (hits respond with ``cache_hit_latency``; another class raises
    :class:`~repro.errors.ConfigError`); the run starts from its contents
    and leaves its final state in it, also when the run raises;
    ``usable_capacity`` is the per-disk byte budget the write allocation
    spends (a vector, or a scalar for every disk; defaults to
    ``fleet.capacities``, like the dispatcher); ``write_policy`` selects
    the placement strategy (a registry name, a policy instance, or
    ``None`` for the paper's §1.1 ``spinning_best_fit``).  ``dpm`` is an optional fresh
    :class:`~repro.control.controller.ThresholdController` (one per run):
    the run is then cut at its control-interval boundaries, and each
    boundary hands the controller the interval's telemetry and takes
    back the next threshold vector.  ``None`` (or a static policy, which
    :meth:`StorageConfig.dpm_controller` maps to ``None``) runs one
    fixed threshold vector, byte-identical to the pre-control kernel.
    The thresholds (``fleet``'s or the controller's) scale each disk's
    ladder descent schedule; with ladders in ``fleet``,
    ``state_durations`` is keyed by the ladders' timeline labels
    instead of :class:`DiskState`.  ``metrics_mode="streaming"`` skips the
    per-request response array: the result carries a bounded
    :class:`~repro.system.metrics.ResponseStats` (exact count/mean/min/max,
    P² percentiles) and ``response_times`` is ``None``.  Returns the same
    :class:`~repro.system.metrics.SimulationResult` the event kernel
    produces, including the post-run ``final_mapping`` and — under
    control — the per-interval traces in ``extra["dpm"]``.  The caller's
    ``mapping`` is not mutated; writes allocate against an internal copy.

    ``observer`` is an optional :class:`~repro.obs.hooks.RunObserver`:
    spin/ladder transition spans, cache events, controller threshold
    pushes and placement choices are emitted in simulated time
    (transition-level granularity — per-request seek/active spans would
    defeat the batching; the event engine emits those).  A disabled or
    ``None`` observer leaves every hot path untouched, and an enabled
    one never changes the result (the differential harness's observer
    axis asserts bit-identity).

    ``scheduler`` is an optional *reset* (or fresh)
    :class:`~repro.system.scheduling.RequestScheduler`: each arrival is
    assigned a release time by the scheduler's deterministic forecast and
    submitted to the disks at that release, in ``(release, arrival
    order)`` order; recorded responses measure from the original arrival
    (the hold rides on top).  Under a dynamic DPM policy the scheduler
    reads the controller's interval-constant ``slo_estimate`` at each
    arrival, and a release landing exactly on a control boundary submits
    after the boundary — both exactly like the event engine's
    ``drive_scheduled_stream``, so every registered scheduler is held to
    1e-9 cross-engine agreement by the differential harness's scheduler
    axis.  ``None`` (what :meth:`StorageConfig.request_scheduler` returns
    for the default ``"fifo"``) submits every arrival at its arrival,
    byte-identical to the pre-scheduler kernel.
    """
    if not hasattr(stream, "times") or not hasattr(stream, "file_ids"):
        raise ConfigError(
            "simulate_fast needs an array-backed stream (.times/.file_ids); "
            "chunked streams go through simulate_fast_chunked"
        )
    # The stream itself is a valid single chunk (``.times``/``.file_ids``
    # and, for mixed streams, ``.kinds``) — the run below is the chunked
    # core, so monolithic and chunked runs cannot drift apart.
    return _simulate_chunks(
        sizes, mapping, fleet, (stream,), duration, label, cache,
        cache_hit_latency, usable_capacity, write_policy, dpm, metrics_mode,
        observer, scheduler,
    )


def simulate_fast_chunked(
    sizes: np.ndarray,
    mapping: np.ndarray,
    fleet: ResolvedFleet,
    stream,
    duration: Optional[float] = None,
    label: str = "run",
    cache=None,
    cache_hit_latency: float = 0.0,
    usable_capacity=None,
    write_policy=None,
    dpm=None,
    metrics_mode: str = "full",
    observer=None,
    scheduler=None,
) -> SimulationResult:
    """Out-of-core variant of :func:`simulate_fast` over a chunked stream.

    ``stream`` follows the ``ChunkedStream`` protocol of
    :mod:`repro.workload.chunked`: ``iter_chunks()`` yields time-sorted
    chunks with ``.times``/``.file_ids`` (and optionally ``.kinds``),
    globally non-decreasing across chunks (validated here, with a
    :class:`~repro.errors.SimulationError` naming the offending boundary).
    Per-disk queue/power state, cache-admission heaps, write placements and
    the DPM controller's interval position all carry across chunk
    boundaries, so the result is bit-identical to materializing the whole
    stream and calling :func:`simulate_fast` — the chunked axis of the
    differential harness asserts exactly that (responses, energies,
    mappings and spin counters; the controlled per-interval power trace
    agrees to 1e-9 relative, see :class:`_SpanBinner`).

    With the default ``metrics_mode="full"`` the per-request response
    array is still accumulated (O(completions) memory); pass
    ``metrics_mode="streaming"`` for bounded memory — peak usage is then
    O(chunk + files + disks), independent of the request count.
    ``duration`` defaults to the stream's ``duration`` attribute.

    ``scheduler`` composes with chunking: a request held across a chunk
    boundary stays in the pending release queue (bounded by the number of
    simultaneously-held requests, not the stream length), and the global
    ``(release, arrival order)`` submission sequence is invariant to the
    chunk partition, so scheduled chunked runs stay bit-identical to the
    monolithic call.
    """
    if not hasattr(stream, "iter_chunks"):
        raise ConfigError(
            "simulate_fast_chunked needs a chunked stream (.iter_chunks()); "
            "array-backed streams can be adapted with .chunks(n)"
        )
    if duration is None:
        duration = getattr(stream, "duration", None)
        if duration is None:
            raise ConfigError(
                "duration is required for chunked streams that do not carry "
                "a duration attribute"
            )
    return _simulate_chunks(
        sizes, mapping, fleet, stream.iter_chunks(), float(duration), label,
        cache, cache_hit_latency, usable_capacity, write_policy, dpm,
        metrics_mode, observer, scheduler,
    )


def _simulate_chunks(
    sizes: np.ndarray,
    mapping: np.ndarray,
    fleet: ResolvedFleet,
    chunks,
    duration: float,
    label: str,
    cache,
    cache_hit_latency: float,
    usable_capacity,
    write_policy,
    dpm,
    metrics_mode: str,
    observer=None,
    scheduler=None,
) -> SimulationResult:
    """Shared replay core: one :class:`_Run` fed ``chunks`` in order.

    The run's cache goes back into ``cache`` when the run ends or raises.
    """
    run = _Run(
        sizes, mapping, fleet, duration, label, cache, cache_hit_latency,
        usable_capacity, write_policy, dpm, metrics_mode, observer, scheduler,
    )
    try:
        for chunk in chunks:
            if not run.intake(chunk):
                break
        run.close()
    finally:
        run.write_back()
    return run.result()


class _Run:
    """One fast-kernel run: its validated inputs, the bank and walk it
    serves through, and every accumulator, with one method per phase.

    :func:`_simulate_chunks` builds it (set-up and validation), hands it
    the stream one chunk at a time (:meth:`intake`), then :meth:`close`\\ s
    it and builds the :meth:`result` from the response fold
    (:meth:`responses`) and the energy assembly (:meth:`energy`).  Every
    accumulator is maintained incrementally with operations chosen for
    partition invariance — the walk bills each request's service to its
    disk one request at a time in arrival order, whatever the batches —
    so a single-chunk pass reproduces the one-shot results bit-for-bit and
    a many-chunk pass reproduces the single-chunk one.

    Every batch goes through :meth:`submit`: the compiled walk writes each
    request's completion and response into per-run buffers and bills the
    service accounting, and those values feed both the controller's
    telemetry and the response fold.  Under a dynamic DPM
    policy the run also drives the controller, with all carry state on
    the run, so splitting the stream at any point is bit-identical to one
    chunk:

    * :meth:`_intervals` cuts a batch at the control-interval grid
      ``edges`` — the one place the run reads boundaries from, and the
      grid the power-trace binner folds on.  An interval whose arrivals
      span several chunks is served in several slices (the per-disk
      recursion carries exactly, and the cache heap's tie-break uses the
      *global* arrival index);
    * an interval's boundary is closed (:meth:`_boundary`) only once an
      arrival at or past its edge has been seen — a later chunk may still
      add arrivals to the open interval.  :meth:`close` closes every
      remaining boundary, including trailing empty intervals, and the
      last one hands the final partial interval to ``dpm.finalize`` (a
      decision at or beyond the horizon could never take effect; the
      event engine's cutoff pre-empts that firing too).

    With a request scheduler, :meth:`schedule` assigns each arrival its
    release and holds it, and :meth:`flush` submits the held releases in
    global ``(release, arrival seq)`` order.
    """

    def __init__(
        self, sizes, mapping, fleet, duration, label, cache,
        cache_hit_latency, usable_capacity, write_policy, dpm, metrics_mode,
        observer, scheduler,
    ) -> None:
        # NaN fails every comparison, so ask for the range, not its
        # complement.
        if not 0 < duration < inf:
            raise ConfigError(
                f"duration must be positive and finite, got {duration!r}"
            )
        if metrics_mode not in ("full", "streaming"):
            raise ConfigError(
                f"metrics_mode must be 'full' or 'streaming', got {metrics_mode!r}"
            )
        T = self.T = float(duration)
        num_disks = fleet.num_disks
        sizes = self.sizes = np.ascontiguousarray(sizes, dtype=float)
        mapping = self.mapping = np.asarray(mapping, dtype=np.int64).copy()
        if mapping.shape != sizes.shape:
            raise SimulationError("mapping and sizes must align per file id")
        # A NaN size would otherwise surface only as a NaN energy.
        bad = ~(np.isfinite(sizes) & (sizes >= 0))
        if bad.any():
            f = int(bad.argmax())
            raise SimulationError(
                f"file {f} has size {sizes[f]!r}; sizes must be finite and >= 0"
            )
        if mapping.size and int(mapping.max()) >= num_disks:
            raise SimulationError(
                f"mapping references disk {int(mapping.max())} but the pool has "
                f"only {num_disks} disks"
            )
        # The classic drive runs as the two_state ladder of each disk's spec;
        # its results keep DiskState keys through CLASSIC_STATES.
        specs = fleet.specs
        self.classic = not fleet.has_ladders
        if self.classic:
            two_state = {s: make_dpm_ladder("two_state", s) for s in set(specs)}
            ladders = [two_state[s] for s in specs]
        else:
            ladders = fleet.ladders
        usable = fleet.capacities if usable_capacity is None else usable_capacity
        free = initial_free_bytes(mapping, sizes, usable, num_disks)
        validate_free_bytes(free, usable)
        policy = make_placement_policy(write_policy)
        policy.reset(num_disks)
        self.fleet = fleet
        self.num_disks = num_disks
        self.label = label
        self.cache = cache
        self.dpm = dpm
        self.scheduler = scheduler
        self.obs = obs = active_observer(observer)
        self.binner: Optional[_SpanBinner] = None
        if dpm is not None:
            if dpm.num_disks != num_disks:
                raise ConfigError(
                    f"controller sized for {dpm.num_disks} disks but the pool "
                    f"has {num_disks}"
                )
            dpm.check_horizon(T)
            self.bank = _DiskBank(
                specs, ladders, dpm.thresholds, T, interval=dpm.interval
            )
            self.edges = _interval_edges(dpm.interval, T)
            self.binner = _SpanBinner(np.asarray(self.edges), num_disks)
            # The open interval is [edges[k], edges[k + 1]).
            self.k = 0
            # Telemetry backlog: (completion, response) blocks not yet
            # reported at a boundary, in global arrival-seq order.
            self.backlog = [(np.empty(0), np.empty(0))]
            # Dispatched but not yet in service, as (service start, disk).
            self.wait_s = np.empty(0, dtype=float)
            self.wait_d = np.empty(0, dtype=np.int64)
        else:
            self.bank = _DiskBank(
                specs, ladders, fleet.thresholds, T, log_spans=obs is not None
            )
        observe = obs is not None
        self.walk = (
            _Walk(sizes, mapping, free, policy, self.bank, observe)
            if cache is None
            else _CacheState(
                cache, sizes, mapping, free, policy, self.bank, observe,
                float(cache_hit_latency),
            )
        )
        # The walk's per-request outputs, reused batch after batch until
        # the run closes: completion and response, then the service start
        # and serving disk where control or a cache reads them.
        track = dpm is not None or cache is not None
        self._out = [np.empty(0), np.empty(0)] + (
            [np.empty(0), np.empty(0, np.int64)] if track else [None, None]
        )
        self.arrivals = 0
        self.streaming = metrics_mode == "streaming"
        self.acc = ResponseAccumulator() if self.streaming else None
        # Full mode: (completion, response) parts of served requests and
        # of cache hits.
        self.served_parts: List[tuple] = []
        self.hit_parts: List[tuple] = []
        # Held releases as (release, arrival, file id, is-write) blocks in
        # arrival-seq order.
        self.pending: List[tuple] = []
        self.prev_last: Optional[float] = None

    def intake(self, chunk) -> bool:
        """Check one chunk, censor it at the horizon, and serve it (or,
        with a scheduler, hold it for release).  Returns ``False`` once
        the chunk reaches the horizon: chunks are globally sorted, so
        everything after its cut is censored, like the event engine's
        URGENT stop discarding queued arrivals."""
        t_all = np.asarray(chunk.times, dtype=float)
        n = int(t_all.size)
        if not n:
            return True
        # The walk serves arrivals in order and the cache heap breaks ties
        # by arrival seq; the event engine's drive_stream raises on
        # out-of-order times, so match it rather than silently reordering
        # — within each chunk and across chunk boundaries.
        back = t_all[1:] < t_all[:-1]
        if back.any():
            bad = int(back.argmax()) + 1
            raise SimulationError(
                "request stream times must be non-decreasing: got "
                f"{t_all[bad]} after {t_all[bad - 1]}"
            )
        if self.prev_last is not None and t_all[0] < self.prev_last:
            raise SimulationError(
                "chunked stream is not globally time-sorted: a chunk starts "
                f"at {t_all[0]} but the previous chunk ended at {self.prev_last}"
            )
        self.prev_last = float(t_all[-1])
        # Columns must align with the times before censoring cuts them
        # all to the same length.
        fid = np.asarray(chunk.file_ids, dtype=np.int64)
        kinds = getattr(chunk, "kinds", None)
        if kinds is not None:
            kinds = np.asarray(kinds)
        for column, values in (("file_ids", fid), ("kinds", kinds)):
            if values is not None and values.shape != (n,):
                raise SimulationError(
                    f"stream {column} must be one per arrival: got "
                    f"{values.size} {column} for {n} arrivals"
                )
        # The event kernel's cutoff is strict: the URGENT stop event at T
        # pre-empts arrival and completion events scheduled at exactly T.
        live = bool(t_all[-1] < self.T)
        if not live:
            cut = int(np.searchsorted(t_all, self.T, side="left"))
            if not cut:
                return False
            t_all = t_all[:cut]
            fid = fid[:cut]
            if kinds is not None:
                kinds = kinds[:cut]
        if int(fid.min()) < 0 or int(fid.max()) >= self.sizes.size:
            raise SimulationError(
                f"stream file ids must lie in [0, {self.sizes.size}) "
                f"(the catalog)"
            )
        is_write: Optional[np.ndarray] = None
        if kinds is not None:
            w = kinds == WRITE
            if w.any():
                is_write = w
        if self.arrivals and self.bank.park_spans is not None:
            # Bounded memory: fold/emit the spans logged so far before the
            # next chunk grows the logs.  A single-chunk run never gets
            # here and takes the one-shot fold at the end, staying
            # bit-exact with one-shot binning; emission order is
            # chunking-invariant because spans are only ever appended in
            # simulation order.
            _flush_bank_spans(self.binner, self.bank, self.classic, self.obs)
        if self.scheduler is None:
            self.submit(fid, t_all, is_write)
            return live
        # Arrivals in one control interval all read the same slo_estimate,
        # and a boundary is closed — with every release strictly before it
        # submitted first — as soon as an arrival at or past it is seen.
        for lo, hi in self._intervals(t_all):
            self.schedule(
                fid[lo:hi], t_all[lo:hi],
                None if is_write is None else is_write[lo:hi],
            )
        # Releases at or before the chunk's last arrival are final: every
        # future arrival (hence every future release) is at or after it,
        # and at a tie the smaller arrival seq goes first either way — so
        # the global submission order is invariant to the chunk partition.
        self.flush(float(t_all[-1]), True)
        return live

    def _intervals(self, t: np.ndarray):
        """Walk sorted times ``t`` one control interval at a time: yield
        each non-empty ``(lo, hi)`` slice inside one interval, and once an
        arrival at or past the interval's edge shows it is over, submit
        the releases due strictly before the edge and close its boundary.
        The interval ``t`` ends in stays open: a later batch may still
        add arrivals before its edge.  Without control ``t`` is one
        slice."""
        n = int(t.size)
        if self.dpm is None:
            yield 0, n
            return
        lo = 0
        while lo < n:
            edge = self.edges[self.k + 1]
            hi = int(np.searchsorted(t, edge, side="left"))
            if hi > lo:
                yield lo, hi
            if hi == n:
                return
            self.flush(edge, False)
            self._boundary()
            lo = hi

    def submit(self, fid, t, w, holds=None) -> None:
        """Serve one time-sorted batch — a chunk's arrivals, or released
        requests in (release, seq) order with ``holds`` = release -
        arrival — and fold its responses.  Under control each interval
        slice is walked, and its completions queued for the telemetry,
        before the boundary after it closes, and seek/active spans are
        binned once per batch (see :class:`_SpanBinner`)."""
        n = int(t.size)
        base = self.arrivals
        if self._out[0].size < n:
            self._out = [
                a if a is None else np.empty(n, a.dtype) for a in self._out
            ]
        comp, resp, starts, d_req = (_part(a, slice(n)) for a in self._out)
        for lo, hi in self._intervals(t):
            sl = slice(lo, hi)
            _serve_coupled(
                self.walk, fid[sl], t[sl], _part(w, sl), _part(starts, sl),
                _part(d_req, sl), comp[sl], resp[sl], base + lo, self.obs,
                _part(holds, sl),
            )
            if self.dpm is not None:
                self._queue(comp[sl], resp[sl], starts[sl], d_req[sl])
        if self.binner is not None:
            # A hit's spans are empty (no overhead, no transfer), which
            # bin_spans drops.
            oh = np.append(self.bank.oh_a, 0.0)[d_req]
            self.binner.add("seek", d_req, starts, starts + oh)
            self.binner.add("active", d_req, starts + oh, comp)
        # A hit completes at its arrival (or release), before the horizon.
        done = comp < self.T
        if self.streaming:
            # Responses in arrival order: the same per-batch formula for
            # every partition, so the accumulator's serial reductions are
            # partition-invariant.
            self.acc.add(resp[done])
        else:
            if self.cache is not None:
                hit = d_req < 0
                if hit.any():
                    done &= ~hit
                    self.hit_parts.append((comp[hit], resp[hit]))
            self.served_parts.append((comp[done], resp[done]))
        self.arrivals += n

    def _queue(self, comp, resp, starts, d) -> None:
        """Queue a walked slice for the boundaries ahead: its completions
        before the horizon with their responses (requests censored at the
        horizon never complete, like the event engine's cutoff pre-empting
        their completion events), and its dispatched requests as (service
        start, disk) — the event drive pops a request from its queue
        exactly at service start, and boundaries only filter these down,
        never rescan."""
        keep = comp < self.T
        self.backlog.append((comp[keep], resp[keep]))
        served = d >= 0
        if served.any():
            self.wait_s = np.concatenate((self.wait_s, starts[served]))
            self.wait_d = np.concatenate((self.wait_d, d[served]))

    def _boundary(self) -> None:
        """Close the open control interval with the telemetry the event
        engine's control process collects: responses completed strictly
        before its edge in completion order (sequence-stable at ties via
        the global arrival index), the idle gaps closed during it,
        and per-disk depths of dispatched requests not yet in service.
        The controller's new thresholds take effect in the bank from the
        next interval on; the last interval is only recorded."""
        bank = self.bank
        k = self.k
        t_start, t_end = self.edges[k], self.edges[k + 1]
        c, r = _columns(self.backlog)
        # Strictly-before: a completion landing exactly on a boundary is
        # observed in the *next* interval, matching the event engine's
        # control event (armed at the previous boundary, hence an earlier
        # FIFO id than completions scheduled during the interval) firing
        # first at the shared instant.  The backlog is in seq order, so a
        # stable order on completion breaks ties by seq.
        done = c < t_end
        responses = r[done][stable_order(c[done])]
        self.backlog = [(c[~done], r[~done])]
        log, bank.gap_log = bank.gap_log, []
        gaps = IdleGaps(*_columns(log)) if log else IdleGaps.from_rows(())
        keep = self.wait_s > t_end
        self.wait_s = self.wait_s[keep]
        self.wait_d = self.wait_d[keep]
        queue_depth = np.bincount(
            self.wait_d, minlength=self.num_disks
        ).astype(float)
        self.k = k + 1
        if self.k == len(self.edges) - 1:
            self.dpm.finalize(t_start, t_end, responses, gaps, queue_depth)
            return
        new_th = self.dpm.advance(t_start, t_end, responses, gaps, queue_depth)
        bank.push_thresholds(new_th)
        if self.obs is not None:
            self.obs.on_thresholds(t_end, new_th)

    def schedule(self, fid, t, w) -> None:
        """Assign releases to arrivals inside one open control interval
        by the scheduler's deterministic forecast (in arrival order,
        reading the controller's interval-constant ``slo_estimate`` under
        control) and hold them — the exact submission sequence the event
        engine's drive_scheduled_stream produces."""
        est = None if self.dpm is None else self.dpm.slo_estimate
        r = np.asarray(
            self.scheduler.release_many(t, fid, w, est), dtype=float
        )
        if w is None:
            w = np.zeros(t.size, dtype=bool)
        if r.shape != t.shape or not (r >= t).all():
            _bad_releases(r, t)
        # A release at or past the horizon never submits (the event
        # engine's URGENT stop pre-empts it) — censored, neither an
        # arrival nor a completion.
        keep = r < self.T
        if keep.any():
            self.pending.append((r[keep], t[keep], fid[keep], w[keep]))

    def flush(self, limit: float, inclusive: bool) -> None:
        """Submit the held releases before ``limit`` (or at it, when
        ``inclusive``) as one batch in (release, seq) order — a stable
        sort on release, since the pending blocks hold arrivals in seq
        order."""
        if not self.pending:
            return
        rel, t_p, fid_p, w_p = _columns(self.pending)
        self.pending.clear()
        due = (rel <= limit) if inclusive else (rel < limit)
        if not due.all():
            rest = ~due
            self.pending.append((rel[rest], t_p[rest], fid_p[rest], w_p[rest]))
        idx = np.flatnonzero(due)
        if not idx.size:
            return
        idx = idx[stable_order(rel[idx])]
        t_c = rel[idx]
        w_c = w_p[idx]
        self.submit(
            fid_p[idx], t_c, w_c if w_c.any() else None, t_c - t_p[idx]
        )

    def close(self) -> None:
        """End of stream: submit the releases still held, close the
        remaining control boundaries, run the cache admissions still
        pending at the horizon, then the trailing-idleness pass and the
        last span flush.  The cache write-back (:meth:`write_back`) runs
        in :func:`_simulate_chunks`'s ``finally``, also when a chunk
        raises."""
        if self.dpm is None:
            self.flush(self.T, False)
        else:
            while self.pending:
                # Interleave the remaining releases (all < T) with the
                # boundaries they straddle — a release exactly on a
                # boundary submits after it, matching the event engine's
                # requeue.
                first = min(float(b[0].min()) for b in self.pending)
                while self.edges[self.k + 1] <= first:
                    self._boundary()
                self.flush(self.edges[self.k + 1], False)
            while self.k < len(self.edges) - 1:
                self._boundary()
        if self.cache is not None:
            _admit_pending(self.walk, self.obs)
        # Trailing idleness: a disk whose post-drain gap outlasts its
        # entries descends the ladder before the horizon.
        self.spinups, self.spindowns = self.bank.apply_tail()
        if self.bank.park_spans is not None:
            # Remaining spans, including the trailing-idleness episodes the
            # tail pass just logged.
            _flush_bank_spans(self.binner, self.bank, self.classic, self.obs)
        self._out = None

    def write_back(self) -> None:
        """Store the walk's cache state into the run's cache object."""
        if self.cache is not None:
            self.walk.write_back()

    def responses(self):
        """The response fold: ``(stats, response_times, completions)`` —
        streaming stats, or every response in completion order, like the
        dispatcher reports them (stable at ties: served completions before
        cache hits)."""
        if self.streaming:
            stats = self.acc.result()
            return stats, None, int(stats.count)
        parts = self.served_parts + self.hit_parts
        if not parts:
            return None, np.empty(0), 0
        comp, resp = _columns(parts)
        response_times = resp[stable_order(comp)]
        return None, response_times, int(response_times.size)

    def energy(self):
        """Energy assembly: ``(energy_per_disk, state_durations)``.

        Residencies keyed by timeline label, accumulated in the order
        (rung 0, parks, seek, active, wakes, descents) — for the two_state
        ladder term for term the classic drive's (idle, standby, seek,
        active, spinup, spindown).  Disks are grouped by their (ladder,
        spec) pair and each group runs the rung-major arithmetic on its
        own sub-vectors: a uniform pool is a single group, while a mixed
        pool prices every drive against its own ladder depth and power
        table."""
        bank, T, num_disks = self.bank, self.T, self.num_disks
        groups: Dict[tuple, List[int]] = {}
        for d, key in enumerate(zip(bank.ladders, self.fleet.specs)):
            groups.setdefault(key, []).append(d)
        energy_per_disk = np.zeros(num_disks, dtype=float)
        per_state: Dict = {}
        for (lad, spec_g), idx_list in groups.items():
            idx = np.asarray(idx_list, dtype=np.int64)
            rungs = lad.rungs
            R = len(rungs)
            park, down, wake = (
                [resid[idx, i] for i in range(R)] for resid in bank._rst
            )
            occupied = bank.seek_t[idx] + bank.active_t[idx]
            for arr in down[1:]:
                occupied = occupied + arr
            for arr in wake[1:]:
                occupied = occupied + arr
            for arr in park[1:]:
                occupied = occupied + arr
            idle_g = np.clip(T - occupied, 0.0, None)
            per_state_g = {rungs[0].name: idle_g}
            for i in range(1, R):
                per_state_g[rungs[i].name] = park[i]
            per_state_g["seek"] = bank.seek_t[idx]
            per_state_g["active"] = bank.active_t[idx]
            for i in range(1, R):
                per_state_g[f"wake:{rungs[i].name}"] = wake[i]
            for i in range(1, R):
                per_state_g[f"down:{rungs[i].name}"] = down[i]
            powers = lad.power_table(spec_g)
            e_g = np.zeros(len(idx_list), dtype=float)
            for state, per_disk in per_state_g.items():
                e_g += powers[state] * per_disk
            energy_per_disk[idx] = e_g
            for state, per_disk in per_state_g.items():
                vec = per_state.setdefault(
                    state, np.zeros(num_disks, dtype=float)
                )
                vec[idx] = per_disk
        if self.classic:
            per_state = {CLASSIC_STATES[k]: v for k, v in per_state.items()}
        state_durations = {
            state: float(per_disk.sum())
            for state, per_disk in per_state.items()
            if per_disk.any()
        }
        return energy_per_disk, state_durations

    def result(self) -> SimulationResult:
        """The closed run as a :class:`SimulationResult`."""
        stats, response_times, completions = self.responses()
        energy_per_disk, state_durations = self.energy()
        T = self.T
        extra = {}
        if self.dpm is not None:
            self.dpm.attach_power(
                _power_from_binner(
                    self.binner, self.bank.ladders, self.fleet.specs,
                    self.classic,
                )
            )
            extra["dpm"] = self.dpm.extra()
        return SimulationResult(
            algorithm=self.label,
            duration=T,
            num_disks=self.num_disks,
            energy=float(energy_per_disk.sum()),
            energy_per_disk=energy_per_disk,
            state_durations=state_durations,
            response_times=response_times,
            arrivals=self.arrivals,
            completions=completions,
            spinups=int(self.spinups.sum()),
            spindowns=int(self.spindowns.sum()),
            always_on_energy=self.fleet.always_on_energy(T),
            cache_stats=self.cache.stats if self.cache is not None else None,
            requests_per_disk=self.bank.n_req,
            spinups_per_disk=self.spinups,
            final_mapping=self.mapping,
            extra=extra,
            response_stats=stats,
        )
