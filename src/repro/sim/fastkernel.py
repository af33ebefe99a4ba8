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

Heterogeneous fleets (``StorageConfig(fleet=...)`` — the
``mixed_generation`` preset or any :class:`~repro.disk.fleet.Fleet`)
turn every per-disk scalar in the banks into a vector: capacities,
transfer rates, access overheads, spin-up/-down durations, per-state
power draws, idleness thresholds and (when any slot carries one) DPM
ladders are all indexed by disk.  A uniform fleet collapses those
vectors to identical entries, so the arithmetic — and the output — is
byte-identical to the pre-fleet scalar path
(``tests/regression/test_uniform_byte_identity.py`` pins this against
recorded goldens).

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
  ladder recursion.  It is bit for bit the per-request Python loop
  ``tests/sim/serve_oracle.py`` keeps as the test oracle.  The bank's
  state lives only in its arrays, so ``engine="fast"`` needs a C compiler
  (the library is built once and cached under ``~/.cache/repro/native``);
  there is no Python fallback;
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
* **controlled** (a dynamic ``StorageConfig.dpm_policy``): the stream is
  segmented at control-interval boundaries and each interval's slice is
  walked against a :class:`_DiskBank` holding *per-interval, per-disk*
  threshold vectors.  An idle gap is governed by the threshold in effect
  at the disk's drain instant (the event drive's already-armed timer), so
  the per-gap threshold is looked up from the drain time's interval.  At
  each boundary the interval's telemetry — responses in completion
  order, closed idle gaps per disk, queue depths — is handed to the
  shared :class:`~repro.control.controller.ThresholdController`, which
  returns the next threshold vector; the event engine's control process
  consumes identical telemetry, so every registered DPM policy
  simulates identically (~1e-9) on both engines.

All state-time, energy and response accounting is vectorized afterwards
and truncated at the measurement horizon exactly like the event kernel's
cutoff.  Semantics mirror :class:`~repro.disk.drive.DiskDrive`: drives
start IDLE with the idleness timer armed at t=0, spin-downs are not
abortable (a request arriving mid-transition waits for spin-down +
spin-up), and requests arriving at or after the horizon are censored
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
from repro.disk.dpm import CLASSIC_STATES, DpmLadder, make_dpm_ladder
from repro.disk.drive import WRITE
from repro.disk.fleet import ResolvedFleet
from repro.disk.power import PowerModel
from repro.disk.specs import DiskSpec
from repro.errors import ConfigError, SimulationError
from repro.native import CoupledArgs, ServeArgs, coupled_core
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


def fast_unsupported_reason(config, stream) -> Optional[str]:
    """Why ``engine="fast"`` cannot run this scenario (``None`` if it can).

    Since the global-merge pass landed, write streams and shared caches are
    supported; the only remaining requirement is a batchable stream —
    either array-backed (dense ``.times``/``.file_ids``, plus optional
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


def _per_disk_specs(spec, num_disks: int) -> tuple:
    """Normalize a spec-or-sequence into one :class:`DiskSpec` per disk."""
    if isinstance(spec, DiskSpec):
        return (spec,) * num_disks
    specs = tuple(spec)
    if len(specs) != num_disks:
        raise ConfigError(
            f"got {len(specs)} disk specs for a {num_disks}-disk pool"
        )
    return specs


def _per_disk_ladders(ladder, num_disks: int) -> tuple:
    """Normalize a ladder-or-sequence into one ladder per disk."""
    if isinstance(ladder, DpmLadder):
        return (ladder,) * num_disks
    ladders = tuple(ladder)
    if len(ladders) != num_disks:
        raise ConfigError(
            f"got {len(ladders)} DPM ladders for a {num_disks}-disk pool"
        )
    return ladders


def _per_disk_floats(value, num_disks: int) -> List[float]:
    """Normalize a scalar-or-vector into one float per disk."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return [float(arr)] * num_disks
    if arr.shape != (num_disks,):
        raise ConfigError(
            f"per-disk vector has shape {arr.shape}, expected ({num_disks},)"
        )
    return [float(v) for v in arr]


#: Gap-log or span records one compiled-core call may buffer before it
#: hands them back (the walk then resumes where it stopped), so record
#: memory stays bounded on long batches.
_LOG_CHUNK = 1 << 14


class _DiskBank:
    """Per-disk queue and DPM-ladder state with carry-in, shared by all paths.

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

    ``thresholds`` (a scalar or a per-disk vector) is fixed for the run
    unless ``interval`` is given.  It is then the first row of the
    per-interval history the controlled path extends with
    :meth:`push_thresholds`, and the threshold governing a gap is the one
    in effect at the disk's *drain* instant (the event drive's
    already-armed timer).  By the time a gap's closing arrival is
    processed its drain interval has been reached, so the lookup always
    resolves.  A controlled bank also logs closed idle gaps
    ``(gap, threshold_at_drain)`` for the control telemetry.  With
    ``log_spans`` (implied by ``interval``) every descent/park/wake
    episode is logged as a ``(disk, start, end)`` span per rung, for the
    per-interval power trace and for observers; logging never changes the
    arithmetic.

    Heterogeneous fleets: ladders, specs and thresholds are per disk, and
    residencies are disk-major (``park_t[d, i]``), each row padded to the
    deepest ladder in the pool.  Scalars tile across the pool, reproducing
    the historical uniform recursion bit for bit.
    """

    def __init__(
        self,
        num_disks: int,
        thresholds,
        ladder,
        spec,
        horizon: float,
        interval: Optional[float] = None,
        log_spans: bool = False,
    ) -> None:
        specs = _per_disk_specs(spec, num_disks)
        ladders = _per_disk_ladders(ladder, num_disks)
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
        # Per-disk scaled-schedule caches (mixed fleets scale different
        # ladders with the same threshold).
        self._entry_cache: List[dict] = [{} for _ in range(num_disks)]
        # Descent schedules: one (disk, rung) matrix per threshold row,
        # padded with inf past each disk's ladder (a one-rung ladder's
        # schedule is (0, inf), hence at least 2 wide).  The walk's spin
        # view reads each disk's last entry and last descent.
        width = max(self.maxR, 2)
        self._disks = np.arange(num_disks)
        rows = 1 if interval is None else 8
        th = _per_disk_floats(thresholds, num_disks)
        self._ent = np.full((rows, num_disks, width), inf)
        if interval is None:
            self.ci = 0.0
            self.gap_log: Optional[List[list]] = None
            self._th: Optional[np.ndarray] = None
        else:
            self.ci = float(interval)
            self.gap_log = [[] for _ in range(num_disks)]
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
        self._set_schedule_row(0, th)

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
        self._gap_n = np.zeros(num_disks, dtype=np.int64)
        self._first = np.zeros(num_disks + 1, dtype=np.int64)
        self._key_n = np.zeros(3 * maxR, dtype=np.int64)

        def ptrs(rows):
            return [row.ctypes.data for row in rows]

        avail, load, pt, pv = ptrs(self._fst)
        n_up, n_down = ptrs(self._ust)
        park, down, wake = ptrs(self._rst)
        args = self._args = ServeArgs(
            D=num_disks, maxR=maxR, W=self._ent.shape[2], T=self.T,
            ci=self.ci, oh=self.oh_a.ctypes.data, R=self._R_a.ctypes.data,
            dn=self._dn_a.ctypes.data, wk=self._wk_a.ctypes.data,
            avail=avail, load=load, pt=pt, pv=pv, n_up=n_up, n_down=n_down,
            park=park, down=down, wake=wake,
            gap_n=self._gap_n.ctypes.data, first=self._first.ctypes.data,
            key_n=self._key_n.ctypes.data,
        )
        if self.gap_log is not None:
            # gap, threshold, then sort space for arrival-order records.
            self._gaps = np.empty((4, _LOG_CHUNK))
            self._gap_d = np.empty(_LOG_CHUNK, dtype=np.int64)
            args.gap_cap = _LOG_CHUNK
            args.gap_g, args.gap_th, args.gap_tmp = ptrs(self._gaps[:3])
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

    def _set_schedule_row(self, k: int, th: List[float]) -> None:
        """Fill row ``k`` of the schedule tables from the scaled-schedule
        cache (growing them when a controlled run outlives their
        capacity) and point the core at them."""
        if k == len(self._ent):
            self._ent = np.concatenate((self._ent, np.full_like(self._ent, inf)))
            self._th = np.concatenate((self._th, np.empty_like(self._th)))
        ent = self._ent[k]
        for d, th_d in enumerate(th):
            e = self._entries_for(d, th_d)
            ent[d, : len(e)] = e
        args = self._args
        args.ent = self._ent.ctypes.data
        args.k = k
        if self._th is not None:
            self._th[k] = th
            args.th = self._th.ctypes.data

    def push_thresholds(self, thresholds: np.ndarray) -> None:
        """Apply the vector decided at the boundary entering interval k+1."""
        self.k += 1
        self._set_schedule_row(
            self.k, np.asarray(thresholds, dtype=float).tolist()
        )

    def _entries_for(self, d: int, th: float) -> tuple:
        """Disk ``d``'s descent schedule under threshold ``th``; a one-rung
        ladder gets an ``inf`` first entry, so no gap ever descends."""
        cache = self._entry_cache[d]
        entries = cache.get(th)
        if entries is None:
            entries = self.ladders[d].scaled_entries(th)
            if len(entries) == 1:
                entries = (0.0, inf)
            cache[th] = entries
        return entries

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
                    self.down_spans[i].append((d, ds, de))
                pe = (a + entries[i + 1]) if i + 1 < R else T
                if pe > T:
                    pe = T
                if pe > de:
                    park_t[i] += pe - de
                    if spans:
                        self.park_spans[i].append((d, de, pe))
        self.n_down[:] = n_down
        self.park_t[:] = park
        self.down_t[:] = down
        return self.n_up.copy(), self.n_down.copy()


def _take_records(bank: _DiskBank) -> None:
    """Append the gap-log and span records the walk holds to the bank's
    logs, and empty its buffers.  Gaps come back sorted by disk and spans
    by (kind, rung), each in arrival order inside its disk or key: every
    log list ends up in the order per-request serving appends to it, and
    :func:`_flush_bank_spans` hands an observer each list in turn (see
    :mod:`repro.obs.hooks`)."""
    args = bank._args
    if args.n_gap:
        m = args.n_gap
        pairs = list(zip(*bank._gaps[:2, :m].tolist()))
        gap_log = bank.gap_log
        lo = 0
        for d, c in enumerate(bank._gap_n.tolist()):
            if c:
                gap_log[d] += pairs[lo : lo + c]
                lo += c
        args.n_gap = 0
        bank._gap_n[:] = 0
    if args.n_span:
        m = args.n_span
        logs = (bank.park_spans, bank.down_spans, bank.wake_spans)
        d_l = bank._span_i[2, :m].tolist()
        s_l, e_l = bank._span_f[2:, :m].tolist()
        lo = 0
        for key, c in enumerate(bank._key_n.tolist()):
            if c:
                kind, i = divmod(key, bank.maxR)
                hi = lo + c
                logs[kind][i].extend(zip(d_l[lo:hi], s_l[lo:hi], e_l[lo:hi]))
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
    arrival seq) — carry across batches.  With ``observe`` the walk records
    cache events into column buffers.
    """

    def __init__(
        self, cache, sizes, mapping, free, policy: WritePlacementPolicy,
        bank: _DiskBank, observe: bool,
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


def _block(cls, parts: list):
    """One :class:`CacheEventBlock` or :class:`PlacementBlock` from the
    column triples taken at a batch's stops."""
    if len(parts) == 1:
        return cls(*parts[0])
    return cls(*(np.concatenate(c) for c in zip(*parts)))


def _serve_coupled(
    state: _Walk,
    fid: np.ndarray,
    t_all: np.ndarray,
    is_write: Optional[np.ndarray],
    starts: np.ndarray,
    d_req: np.ndarray,
    base_index: int,
    obs=None,
) -> None:
    """Serve one time-sorted batch (chunk, control interval or release
    batch) in one compiled walk in arrival order, filling ``starts`` and
    ``d_req`` (the serving disk, -1 for a cache hit) in place.

    Each request is served through its disk's queue and ladder recursion,
    with transfer time ``size / rate`` on its disk, a write of an unmapped
    file once the walk has placed it.  With a shared cache (``state`` a
    :class:`_CacheState`) reads look the cache up at arrival and, on a
    miss, schedule an admission at their completion time; before each
    arrival the walk drains those admissions in (completion, global seq)
    order, reproducing the event kernel's interleaving (hit short-circuit,
    admit-on-miss-completion).  Ties (admission exactly at an arrival
    instant) admit first; admissions at or after the horizon never happen,
    exactly like the event kernel's URGENT stop pre-empting completion
    events at ``T``.  ``base_index`` keeps the admission tie-break global.

    The walk stops at a write no disk has room for and at a read of an
    unmapped file (raised here) and at a full record buffer.  Under an
    observer the batch's placements go to ``obs.on_placements`` as one
    :class:`~repro.obs.hooks.PlacementBlock`, then its cache events to
    ``obs.on_cache_events`` as one
    :class:`~repro.obs.hooks.CacheEventBlock`, even when the pass raises.
    """
    n = int(t_all.size)
    for out, dtype in ((starts, float), (d_req, np.int64)):
        # The walk writes through these pointers.
        if out.shape != (n,) or out.dtype != dtype or not out.flags.c_contiguous:
            raise SimulationError(
                f"walk outputs must be contiguous {n}-element "
                f"{np.dtype(dtype).name} arrays"
            )
    fid = np.ascontiguousarray(fid, dtype=np.int64)
    t_all = np.ascontiguousarray(t_all, dtype=float)
    w = None if is_write is None else np.ascontiguousarray(is_write, np.uint8)
    if fid.shape != (n,) or (w is not None and w.shape != (n,)):
        raise SimulationError(
            f"batch arrays differ in length: {n} times, {fid.size} file ids"
            + ("" if w is None else f", {w.size} kinds")
        )
    state.reserve(n)
    args = state.args
    args.n, args.base, args.final = n, base_index, 0
    args.fid = fid.ctypes.data
    args.t = t_all.ctypes.data
    args.w = None if w is None else w.ctypes.data
    args.starts = starts.ctypes.data
    args.dreq = d_req.ctypes.data
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
            obs.on_placements(_block(PlacementBlock, placed))
        if events:
            obs.on_cache_events(_block(CacheEventBlock, events))


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
            obs.on_cache_events(_block(CacheEventBlock, parts))


class _ControlledDriver:
    """Interval-segmented execution under a dynamic DPM policy, with all
    carry state threaded across chunk boundaries.

    The monolithic controlled path is one :meth:`feed` of the whole stream
    followed by :meth:`finish`; the chunked path feeds one chunk at a time.
    Everything the interval loop needs to resume lives on the driver — the
    cache-admission heap, the telemetry backlog (completions not yet
    reported at a boundary), dispatched-but-waiting requests and the
    controller's interval position — so splitting the stream at any point
    is bit-identical to the single call:

    * arrivals are processed one control interval at a time through the
      run's compiled walk; an interval whose arrivals span several chunks
      is served in several sub-slices (the per-disk recursion carries
      exactly, and the cache heap's tie-break uses the *global* arrival
      index ``n_seen``);
    * an interval's boundary is processed only once an arrival at or past
      its ``t_end`` has been seen — a later chunk may still add arrivals
      to the open interval.  :meth:`finish` processes every remaining
      boundary, including trailing empty intervals, and hands the final
      partial interval to ``dpm.finalize`` (a decision at or beyond the
      horizon could never take effect; the event engine's cutoff pre-empts
      that firing too).

    Telemetry at each boundary matches the event engine's control process:
    responses completed strictly before ``t_end`` in completion order
    (sequence-stable at ties via the global arrival index), per-disk idle
    gaps closed during the interval (the bank's ``gap_log`` is drained and
    cleared *in place* — the serve loops hold bound ``append`` references)
    and per-disk queue depths of dispatched requests not yet in service,
    carried as ``(service start, disk)`` value arrays so no global
    ``starts`` array is ever materialized.
    """

    __slots__ = (
        "bank", "dpm", "serve", "hit_lat", "T", "ci", "oh_a", "rate_a",
        "pend_c", "pend_seq", "pend_r", "wait_s", "wait_d",
        "n_seen", "k", "t_start", "finished", "obs",
    )

    def __init__(
        self, bank, dpm, serve, cache_hit_latency: float, obs=None
    ) -> None:
        self.bank = bank
        self.dpm = dpm
        # The run's batch server (see _simulate_chunks).
        self.serve = serve
        self.hit_lat = float(cache_hit_latency)
        self.T = bank.T
        self.ci = dpm.interval
        self.oh_a = bank.oh_a
        self.rate_a = bank.rate_a
        # Telemetry backlog: completions not yet reported at a boundary.
        self.pend_c: List[np.ndarray] = []
        self.pend_seq: List[np.ndarray] = []
        self.pend_r: List[np.ndarray] = []
        # Dispatched but not yet in service, as (service start, disk).
        self.wait_s = np.empty(0, dtype=float)
        self.wait_d = np.empty(0, dtype=np.int64)
        self.n_seen = 0  # live arrivals fed so far (global sequence ids)
        self.k = 0
        self.t_start = 0.0
        self.finished = False
        self.obs = obs

    def _serve_slice(
        self,
        fid: np.ndarray,
        t_all: np.ndarray,
        sz_all: np.ndarray,
        is_write: Optional[np.ndarray],
        starts: np.ndarray,
        d_req: np.ndarray,
        lo: int,
        hi: int,
        holds: Optional[np.ndarray] = None,
    ) -> None:
        sl = slice(lo, hi)
        self.serve(
            fid[sl], t_all[sl], None if is_write is None else is_write[sl],
            starts[sl], d_req[sl], self.n_seen + lo,
        )
        # Queue newly served requests' completions for the telemetry feed
        # (cache hits complete at their arrival instant; requests censored
        # at the horizon never complete, like the event engine's cutoff
        # pre-empting their completion events).
        d_sl = d_req[sl]
        served = d_sl >= 0
        # Per-disk overheads/rates: resolve against disk 0 for unserved
        # (hit) slots — the value is discarded by the where() below.
        d_safe = np.where(served, d_sl, 0)
        oh_sl = self.oh_a[d_safe]
        tr_sl = sz_all[sl] / self.rate_a[d_safe]
        c_sl = np.where(served, starts[sl] + oh_sl + tr_sl, t_all[sl])
        r_sl = np.where(served, c_sl - t_all[sl], self.hit_lat)
        if holds is not None:
            # Scheduled runs measure responses from the *original* arrival:
            # the hold (release - arrival) rides on top of the post-release
            # response, exactly like the event dispatcher's response_offset.
            r_sl = r_sl + holds[sl]
        keep = c_sl < self.T
        self.pend_c.append(c_sl[keep])
        self.pend_seq.append(
            np.arange(self.n_seen + lo, self.n_seen + hi, dtype=np.int64)[keep]
        )
        self.pend_r.append(r_sl[keep])
        # Dispatched requests not yet in service at some future boundary
        # (the event drive pops a request from its queue exactly at service
        # start); boundaries only filter these down, never rescan.
        w = starts[sl][served]
        if w.size:
            self.wait_s = np.concatenate((self.wait_s, w))
            self.wait_d = np.concatenate((self.wait_d, d_sl[served]))

    def _boundary(self, t_end: float, last: bool) -> None:
        bank = self.bank
        c = np.concatenate(self.pend_c) if self.pend_c else np.empty(0)
        seq = (
            np.concatenate(self.pend_seq)
            if self.pend_seq
            else np.empty(0, np.int64)
        )
        r = np.concatenate(self.pend_r) if self.pend_r else np.empty(0)
        # Strictly-before: a completion landing exactly on a boundary is
        # observed in the *next* interval, matching the event engine's
        # control event (armed at the previous boundary, hence an earlier
        # FIFO id than completions scheduled during the interval) firing
        # first at the shared instant.
        done = c < t_end
        order = np.lexsort((seq[done], c[done]))
        responses = r[done][order]
        self.pend_c = [c[~done]]
        self.pend_seq = [seq[~done]]
        self.pend_r = [r[~done]]
        gaps = []
        for log in bank.gap_log:
            gaps.append(log[:])
            log.clear()
        keep = self.wait_s > t_end
        self.wait_s = self.wait_s[keep]
        self.wait_d = self.wait_d[keep]
        queue_depth = np.bincount(
            self.wait_d, minlength=len(bank.avail)
        ).astype(float)
        if last:
            self.dpm.finalize(self.t_start, t_end, responses, gaps, queue_depth)
            self.finished = True
        else:
            new_th = self.dpm.advance(
                self.t_start, t_end, responses, gaps, queue_depth
            )
            bank.push_thresholds(new_th)
            if self.obs is not None:
                self.obs.on_thresholds(t_end, new_th)
            self.t_start = t_end
            self.k += 1

    def feed(
        self,
        fid: np.ndarray,
        t_all: np.ndarray,
        sz_all: np.ndarray,
        is_write: Optional[np.ndarray],
        starts: np.ndarray,
        d_req: np.ndarray,
        holds: Optional[np.ndarray] = None,
    ) -> None:
        """Serve one chunk of live (pre-censored, time-sorted) arrivals, or
        one batch of releases (``holds`` = release - arrival)."""
        n = int(t_all.size)
        lo = 0
        while lo < n:
            t_end = min((self.k + 1) * self.ci, self.T)
            hi = int(np.searchsorted(t_all, t_end, side="left"))
            if hi > lo:
                self._serve_slice(
                    fid, t_all, sz_all, is_write, starts, d_req, lo, hi,
                    holds,
                )
            if hi == n:
                # Chunk exhausted mid-interval: a later chunk may still add
                # arrivals before t_end, so the boundary stays open.
                break
            self._boundary(t_end, t_end >= self.T)
            lo = hi
            if self.finished:  # pragma: no cover - arrivals are censored < T
                break
        self.n_seen += n

    def drain_to(self, t: float) -> None:
        """Process every boundary at or before ``t`` (scheduled runs: a
        deferred release landing exactly on a control boundary submits
        *after* that boundary, matching the event engine's requeue)."""
        while not self.finished:
            t_end = min((self.k + 1) * self.ci, self.T)
            if t_end > t:
                break
            self._boundary(t_end, t_end >= self.T)

    def finish(self) -> None:
        """Process every remaining boundary (trailing empty intervals
        included) and hand the final partial interval to ``dpm.finalize``."""
        while not self.finished:
            t_end = min((self.k + 1) * self.ci, self.T)
            self._boundary(t_end, t_end >= self.T)


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


def _interval_edges(interval: float, horizon: float) -> np.ndarray:
    """The ascending control-interval grid ``[0, ci, 2ci, ..., T]``.

    Computes the exact floats the controlled interval loop produces
    (``min((k + 1) * ci, T)``), so the per-interval power bins align with
    ``dpm.records`` bit-for-bit.
    """
    edges = [0.0]
    k = 0
    while True:
        t_end = min((k + 1) * float(interval), horizon)
        edges.append(t_end)
        if t_end >= horizon:
            break
        k += 1
    return np.asarray(edges, dtype=float)


class _SpanBinner:
    """Incremental per-interval per-disk state-overlap accumulator.

    Chunked controlled runs cannot keep every logged state span until the
    end (the span logs grow with the request count), so spans are folded
    into fixed-size ``(K, D)`` overlap matrices between chunks and the
    logs cleared.  The first batch folded under a key is stored as-is, so
    a monolithic (single-chunk) run reproduces the historical one-shot
    ``bin_spans`` call bit-for-bit; later batches accumulate, which only
    regroups the float sums — the chunked-vs-monolithic differential axis
    therefore holds the power trace to 1e-9 relative rather than exact.
    """

    __slots__ = ("edges", "num_disks", "_bins")

    def __init__(self, edges: np.ndarray, num_disks: int) -> None:
        self.edges = edges
        self.num_disks = num_disks
        self._bins: dict = {}

    def add(self, key, disks, starts, ends) -> None:
        from repro.control.telemetry import bin_spans

        mat = bin_spans(disks, starts, ends, self.edges, self.num_disks)
        prev = self._bins.get(key)
        self._bins[key] = mat if prev is None else prev + mat

    def add_entries(self, key, entries: list) -> None:
        """Fold a ``(disk, start, end)`` tuple list (caller clears it)."""
        if not entries:
            return
        arr = np.asarray(entries, dtype=float)
        self.add(key, arr[:, 0].astype(np.int64), arr[:, 1], arr[:, 2])

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
    """Drain a bank's logged transition spans and clear them in place
    (the serve loops hold bound references): fold them into the binner
    (controlled runs), emit them to an observer (clipped at the horizon,
    like every accounting path, and named by :data:`CLASSIC_STATES` on a
    ``classic`` run), or both.  Called between chunks and once at the end
    of the run, so span-log memory stays bounded by the chunk size and
    observer emission order is deterministic for any chunking.
    """
    T = bank.T
    for i in range(1, bank.maxR):
        for prefix in _span_kinds(classic):
            spans = getattr(bank, f"{prefix}_spans")[i]
            if binner is not None:
                binner.add_entries((prefix, i), spans)
            if obs is not None:
                for d, s, e in spans:
                    if s >= T:
                        continue
                    name = bank.ladders[d].rungs[i].name
                    if prefix != "park":
                        name = f"{prefix}:{name}"
                    if classic:
                        name = CLASSIC_STATES[name].value
                    obs.on_state_span(int(d), name, s, e if e < T else T)
            spans.clear()


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
    spec: DiskSpec,
    num_disks: int,
    threshold: float,
    stream,
    duration: float,
    label: str = "run",
    cache=None,
    cache_hit_latency: float = 0.0,
    usable_capacity=None,
    write_policy=None,
    dpm=None,
    ladder=None,
    metrics_mode: str = "full",
    fleet: Optional[ResolvedFleet] = None,
    observer=None,
    scheduler=None,
) -> SimulationResult:
    """Simulate ``stream`` against ``mapping`` without the event loop.

    Parameters mirror what :class:`~repro.system.storage.StorageSystem`
    assembles: ``sizes``/``mapping`` are dense per-file arrays, ``threshold``
    is the effective idleness threshold (``inf`` disables spin-down) and
    ``duration`` the measurement horizon.  ``cache`` is an optional
    :class:`~repro.cache.LRUCache`, :class:`~repro.cache.FIFOCache`,
    :class:`~repro.cache.ClockCache` or :class:`~repro.cache.LFUCache`
    (hits respond with ``cache_hit_latency``; another class raises
    :class:`~repro.errors.ConfigError`); the run starts from its contents
    and leaves its final state in it, also when the run raises; ``usable_capacity`` is the per-disk byte budget
    the write allocation spends (defaults to the spec's raw capacity, like
    the dispatcher); ``write_policy`` selects the placement strategy (a
    registry name, a policy instance, or ``None`` for the paper's §1.1
    ``spinning_best_fit``).  ``dpm`` is an optional fresh
    :class:`~repro.control.controller.ThresholdController` (one per run)
    engaging the interval-segmented controlled path — ``None`` (or a
    static policy, which :meth:`StorageConfig.dpm_controller` maps to
    ``None``) keeps the fixed-threshold paths byte-identical to the
    pre-control kernel.  ``ladder`` is an optional
    :class:`~repro.disk.dpm.DpmLadder` whose descent schedule
    ``threshold`` (or the controller vector) scales; ``state_durations``
    is then keyed by the ladder's timeline labels instead of
    :class:`DiskState`.  ``metrics_mode="streaming"`` skips the
    per-request response array: the result carries a bounded
    :class:`~repro.system.metrics.ResponseStats` (exact count/mean/min/max,
    P² percentiles) and ``response_times`` is ``None``.  Returns the same
    :class:`~repro.system.metrics.SimulationResult` the event kernel
    produces, including the post-run ``final_mapping`` and — under
    control — the per-interval traces in ``extra["dpm"]``.  The caller's
    ``mapping`` is not mutated; writes allocate against an internal copy.

    ``fleet`` is an optional :class:`~repro.disk.fleet.ResolvedFleet`
    carrying per-disk specs, ladders and thresholds; when given it
    overrides ``spec``/``threshold``/``ladder`` (which remain the
    uniform-pool sugar) and the recursion runs per-disk constants —
    ``usable_capacity`` may then be a per-disk vector too.

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
    for the default ``"fifo"``) keeps every path byte-identical to the
    unscheduled kernel.
    """
    if not hasattr(stream, "times") or not hasattr(stream, "file_ids"):
        raise ConfigError(
            "simulate_fast needs an array-backed stream (.times/.file_ids); "
            "chunked streams go through simulate_fast_chunked"
        )
    # The stream itself is a valid single chunk (``.times``/``.file_ids``
    # and, for mixed streams, ``.kinds``) — every code path below is the
    # chunked core, so monolithic and chunked runs cannot drift apart.
    return _simulate_chunks(
        sizes, mapping, spec, num_disks, threshold, (stream,), duration,
        label, cache, cache_hit_latency, usable_capacity, write_policy,
        dpm, ladder, metrics_mode, fleet, observer, scheduler,
    )


def simulate_fast_chunked(
    sizes: np.ndarray,
    mapping: np.ndarray,
    spec: DiskSpec,
    num_disks: int,
    threshold: float,
    stream,
    duration: Optional[float] = None,
    label: str = "run",
    cache=None,
    cache_hit_latency: float = 0.0,
    usable_capacity=None,
    write_policy=None,
    dpm=None,
    ladder=None,
    metrics_mode: str = "full",
    fleet: Optional[ResolvedFleet] = None,
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
        sizes, mapping, spec, num_disks, threshold, stream.iter_chunks(),
        float(duration), label, cache, cache_hit_latency, usable_capacity,
        write_policy, dpm, ladder, metrics_mode, fleet, observer, scheduler,
    )


def _simulate_chunks(
    sizes: np.ndarray,
    mapping: np.ndarray,
    spec: DiskSpec,
    num_disks: int,
    threshold: float,
    chunks,
    duration: float,
    label: str,
    cache,
    cache_hit_latency: float,
    usable_capacity,
    write_policy,
    dpm,
    ladder,
    metrics_mode: str,
    fleet: Optional[ResolvedFleet] = None,
    observer=None,
    scheduler=None,
) -> SimulationResult:
    """Shared replay core: one pass over ``chunks`` with full carry state.

    Every accumulator that the monolithic kernel used to compute in one
    vectorized shot at the end (per-disk seek/active bincounts, response
    assembly, per-interval power bins) is maintained incrementally with
    operations chosen for partition invariance — serial ``np.add.at``
    scatter-adds continue ``np.bincount``'s left-to-right reduction exactly,
    so a single-chunk pass reproduces the historical monolithic results
    bit-for-bit and a many-chunk pass reproduces the single-chunk one.
    """
    if duration <= 0:
        raise ConfigError("duration must be positive")
    if metrics_mode not in ("full", "streaming"):
        raise ConfigError(
            f"metrics_mode must be 'full' or 'streaming', got {metrics_mode!r}"
        )
    T = float(duration)
    sizes = np.ascontiguousarray(sizes, dtype=float)
    mapping = np.asarray(mapping, dtype=np.int64).copy()
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
    # A resolved fleet overrides the uniform spec/threshold/ladder sugar
    # with per-disk values; everything downstream runs per-disk vectors
    # either way (a uniform pool is a tiled vector, bit-identical to the
    # historical scalar constants).
    if fleet is not None:
        if fleet.num_disks != num_disks:
            raise ConfigError(
                f"fleet resolves {fleet.num_disks} disks but the pool has "
                f"{num_disks}"
            )
        specs = fleet.specs
        ladders = fleet.ladders if fleet.has_ladders else None
        th_in = fleet.thresholds
        homogeneous = fleet.homogeneous_specs
    else:
        specs = (spec,) * num_disks
        ladders = ladder
        th_in = threshold
        homogeneous = True
    # The classic drive runs as the two_state ladder of each disk's spec;
    # its results keep DiskState keys through CLASSIC_STATES.
    classic = ladders is None
    if classic:
        two_state = {s: make_dpm_ladder("two_state", s) for s in set(specs)}
        ladders = [two_state[s] for s in specs]
    if usable_capacity is None:
        usable = (
            specs[0].capacity
            if homogeneous
            else np.array([s.capacity for s in specs], dtype=float)
        )
    elif np.ndim(usable_capacity) == 0:
        usable = float(usable_capacity)
    else:
        usable = np.asarray(usable_capacity, dtype=float)
    free = initial_free_bytes(mapping, sizes, usable, num_disks)
    validate_free_bytes(free, usable)
    policy = make_placement_policy(write_policy)
    policy.reset(num_disks)

    streaming = metrics_mode == "streaming"
    obs = active_observer(observer)

    def serve(fid_c, t_c, w_c, starts_c, d_c, base) -> None:
        """Serve one time-sorted batch through the compiled walk, filling
        ``starts_c`` and ``d_c`` (each request's disk, -1 for a cache hit)
        in place.  ``base`` is the batch's global arrival index (the cache
        heap's tie-break)."""
        _serve_coupled(walk, fid_c, t_c, w_c, starts_c, d_c, base, obs)

    driver: Optional[_ControlledDriver] = None
    binner: Optional[_SpanBinner] = None
    if dpm is not None:
        if dpm.num_disks != num_disks:
            raise ConfigError(
                f"controller sized for {dpm.num_disks} disks but the pool "
                f"has {num_disks}"
            )
        bank = _DiskBank(
            num_disks, dpm.thresholds, ladders, specs, T,
            interval=dpm.interval,
        )
        driver = _ControlledDriver(bank, dpm, serve, cache_hit_latency, obs)
        binner = _SpanBinner(_interval_edges(dpm.interval, T), num_disks)
    else:
        bank = _DiskBank(
            num_disks, th_in, ladders, specs, T, log_spans=obs is not None
        )
    # A shared cache lives in the walk's arrays for the whole run and goes
    # back into ``cache`` when the run ends or raises.
    observe = obs is not None
    walk = (
        _Walk(sizes, mapping, free, policy, bank, observe)
        if cache is None
        else _CacheState(cache, sizes, mapping, free, policy, bank, observe)
    )

    # Persistent accumulators (fixed size in the pool, not the stream).
    seek_time = np.zeros(num_disks, dtype=float)
    active_time = np.zeros(num_disks, dtype=float)
    req_count = np.zeros(num_disks, dtype=np.int64)
    arrivals = 0
    hits = 0
    hit_lat = float(cache_hit_latency)
    acc = ResponseAccumulator() if streaming else None
    resp_c_parts: List[np.ndarray] = []
    resp_v_parts: List[np.ndarray] = []
    hit_t_parts: List[np.ndarray] = []
    hit_v_parts: List[np.ndarray] = []

    def _submit(fid_c, t_c, sz_c, w_c, holds_c=None) -> None:
        """Serve one time-sorted batch — a chunk's arrivals, or released
        requests in (release, seq) order with ``holds_c`` = release -
        arrival — and fold it into the persistent accumulators."""
        nonlocal arrivals, hits, req_count
        n_c = int(t_c.size)
        starts_c = np.empty(n_c, dtype=float)
        d_req_c = np.empty(n_c, dtype=np.int64)
        if driver is not None:
            driver.feed(fid_c, t_c, sz_c, w_c, starts_c, d_req_c, holds_c)
        else:
            serve(fid_c, t_c, w_c, starts_c, d_req_c, arrivals)
        served = d_req_c >= 0
        n_hits = n_c - int(served.sum())
        if n_hits:
            d_s = d_req_c[served]
            s_s = starts_c[served]
            sz_s = sz_c[served]
            t_s = t_c[served]
        else:
            d_s, s_s, sz_s, t_s = d_req_c, starts_c, sz_c, t_c
        # Per-request overhead/transfer resolved against the serving
        # disk's own spec (identical to the uniform scalars on a
        # homogeneous pool).
        oh_s = bank.oh_a[d_s]
        tr_s = sz_s / bank.rate_a[d_s]
        # Service accounting truncated at the horizon; the serial scatter-
        # add continues np.bincount's reduction exactly across chunks.
        np.add.at(seek_time, d_s, np.clip(T - s_s, 0.0, oh_s))
        np.add.at(active_time, d_s, np.clip(T - (s_s + oh_s), 0.0, tr_s))
        req_count += np.bincount(d_s, minlength=num_disks)
        if binner is not None:
            binner.add("seek", d_s, s_s, s_s + oh_s)
            binner.add("active", d_s, s_s + oh_s, s_s + oh_s + tr_s)
        completion = s_s + oh_s + tr_s
        done = completion < T
        resp = completion - t_s
        if holds_c is None:
            hit_v = np.full(n_hits, hit_lat)
        else:
            # Scheduled runs measure responses from the *original* arrival:
            # the hold rides on top of the post-release response, exactly
            # like the event dispatcher's response_offset.
            resp = resp + (holds_c[served] if n_hits else holds_c)
            hit_v = hit_lat + holds_c[~served]
        if streaming:
            # Feed responses in arrival order (served completions where
            # they complete before T, hits at the hit latency) — the same
            # per-batch formula for every partition, so the accumulator's
            # serial reductions are partition-invariant.
            vals = np.empty(n_c, dtype=float)
            ok = np.ones(n_c, dtype=bool)
            vals[served] = resp
            ok[served] = done
            if n_hits:
                vals[~served] = hit_v
            acc.add(vals[ok])
        else:
            resp_c_parts.append(completion[done])
            resp_v_parts.append(resp[done])
            if n_hits:
                hit_t_parts.append(t_c[~served])
                hit_v_parts.append(hit_v)
        arrivals += n_c
        hits += n_hits

    # -- slack-aware request scheduling (repro.system.scheduling) --------------
    # Arrivals are assigned release times by the scheduler's deterministic
    # forecast (in arrival order, reading the controller's interval-constant
    # slo_estimate under control) and submitted to the disks in global
    # (release, arrival-seq) order — the exact submission sequence the event
    # engine's drive_scheduled_stream produces.  Pending releases ride
    # across interval and chunk boundaries as (release, arrival, file id,
    # is-write) array blocks in arrival-seq order.  scheduler=None takes the
    # historical unscheduled paths, byte-identical to the pre-scheduler
    # kernel.
    pending: List[tuple] = []
    if scheduler is not None:
        release_many = scheduler.release_many

        def _schedule(fid_a, t_a, w_a, lo, hi, est) -> None:
            """Assign releases to arrivals [lo, hi) (one open interval)."""
            t_c = t_a[lo:hi]
            f_c = fid_a[lo:hi]
            if w_a is None:
                w_c = np.zeros(hi - lo, dtype=bool)
                w_l = None
            else:
                w_c = w_a[lo:hi]
                w_l = w_c.tolist()
            r_c = np.array(
                release_many(t_c.tolist(), f_c.tolist(), w_l, est), dtype=float
            )
            if r_c.shape != t_c.shape or not (r_c >= t_c).all():
                _bad_releases(r_c, t_c)
            # A release at or past the horizon never submits (the event
            # engine's URGENT stop pre-empts it) — censored, neither an
            # arrival nor a completion.
            keep = r_c < T
            if keep.any():
                pending.append((r_c[keep], t_c[keep], f_c[keep], w_c[keep]))

        def _flush(limit: float, inclusive: bool) -> None:
            """Take the pending releases before ``limit`` (or at it, when
            ``inclusive``) and serve them as one batch in (release, seq)
            order — a stable sort on release, since the pending blocks
            hold arrivals in seq order."""
            if not pending:
                return
            rel, t_p, fid_p, w_p = (np.concatenate(c) for c in zip(*pending))
            pending.clear()
            due = (rel <= limit) if inclusive else (rel < limit)
            if not due.all():
                rest = ~due
                pending.append((rel[rest], t_p[rest], fid_p[rest], w_p[rest]))
            idx = np.flatnonzero(due)
            if not idx.size:
                return
            idx = idx[np.argsort(rel[idx], kind="stable")]
            t_c = rel[idx]
            fid_c = fid_p[idx]
            w_c = w_p[idx]
            _submit(
                fid_c, t_c, sizes[fid_c], w_c if w_c.any() else None,
                t_c - t_p[idx],
            )

    try:
        prev_last: Optional[float] = None
        for chunk in chunks:
            t_all = np.asarray(chunk.times, dtype=float)
            n = int(t_all.size)
            if not n:
                continue
            # Every path relies on time-sorted arrivals (stable per-disk
            # grouping, the global merge); the event engine's drive_stream
            # raises on out-of-order times, so match it rather than silently
            # reordering — within each chunk and across chunk boundaries.
            if n > 1 and bool(np.any(np.diff(t_all) < 0)):
                bad = int(np.argmax(np.diff(t_all) < 0)) + 1
                raise SimulationError(
                    "request stream times must be non-decreasing: got "
                    f"{t_all[bad]} after {t_all[bad - 1]}"
                )
            if prev_last is not None and t_all[0] < prev_last:
                raise SimulationError(
                    "chunked stream is not globally time-sorted: a chunk starts "
                    f"at {t_all[0]} but the previous chunk ended at {prev_last}"
                )
            prev_last = float(t_all[-1])
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
            censored = bool(t_all[-1] >= T)
            if censored:
                cut = int(np.searchsorted(t_all, T, side="left"))
                if not cut:
                    break
                t_all = t_all[:cut]
                fid = fid[:cut]
                if kinds is not None:
                    kinds = kinds[:cut]
                n = cut
            if int(fid.min()) < 0 or int(fid.max()) >= sizes.size:
                raise SimulationError(
                    f"stream file ids must lie in [0, {sizes.size}) "
                    f"(the catalog)"
                )
            is_write: Optional[np.ndarray] = None
            if kinds is not None:
                w = kinds == WRITE
                if w.any():
                    is_write = w
            if arrivals and bank.park_spans is not None:
                # Bounded memory: fold/emit the spans logged so far before the
                # next chunk grows the logs.  A single-chunk run never gets
                # here and takes the one-shot fold at the end, staying
                # bit-exact with the historical monolithic binning; emission
                # order is chunking-invariant because spans are only ever
                # appended in simulation order.
                _flush_bank_spans(binner, bank, classic, obs)
            if scheduler is None:
                _submit(fid, t_all, sizes[fid], is_write)
            elif driver is not None:
                # Interval-segmented: arrivals in one control interval all
                # read the same slo_estimate, and a boundary is processed —
                # with every release strictly before it flushed first — as
                # soon as an arrival at or past it is seen.
                ci = driver.ci
                pos = 0
                while pos < n:
                    t_edge = min((driver.k + 1) * ci, T)
                    hi = int(np.searchsorted(t_all, t_edge, side="left"))
                    if hi > pos:
                        _schedule(fid, t_all, is_write, pos, hi, dpm.slo_estimate)
                    if hi == n:
                        # Chunk exhausted mid-interval: a later chunk may
                        # still add arrivals before t_edge, so the boundary
                        # stays open.
                        break
                    _flush(t_edge, False)
                    driver._boundary(t_edge, t_edge >= T)
                    pos = hi
            else:
                _schedule(fid, t_all, is_write, 0, n, None)
            if scheduler is not None:
                # Releases at or before the chunk's last arrival are final:
                # every future arrival (hence every future release) is at or
                # after it, and at a tie the smaller arrival seq flushes first
                # either way — so the global submission order is invariant to
                # the chunk partition.
                _flush(float(t_all[-1]), True)
            if censored:
                # Chunks are globally sorted, so everything after this chunk's
                # cut is at or past the horizon — censored, like the event
                # engine's URGENT stop discarding queued arrivals.
                break

        if scheduler is not None and pending:
            # Requests still held past the last arrival: interleave the
            # remaining releases (all < T) with the control boundaries they
            # straddle — a release exactly on a boundary submits after it.
            if driver is not None:
                ci = driver.ci
                while pending:
                    driver.drain_to(min(float(b[0].min()) for b in pending))
                    _flush(min((driver.k + 1) * ci, T), False)
            else:
                _flush(T, False)
        if driver is not None:
            driver.finish()
        if cache is not None:
            _admit_pending(walk, obs)
    finally:
        if cache is not None:
            walk.write_back()

    # -- vectorized accounting over the banked state ---------------------------

    # Trailing idleness: a disk whose post-drain gap outlasts its entries
    # descends the ladder before the horizon.
    spinups, spindowns = bank.apply_tail()
    if bank.park_spans is not None:
        # Remaining spans, including the trailing-idleness episodes the
        # tail pass just logged.
        _flush_bank_spans(binner, bank, classic, obs)

    if streaming:
        stats = acc.result()
        response_times = None
        completions = int(stats.count)
    else:
        stats = None
        resp_completion = (
            np.concatenate(resp_c_parts) if resp_c_parts else np.empty(0)
        )
        resp_values = (
            np.concatenate(resp_v_parts) if resp_v_parts else np.empty(0)
        )
        if hits:
            resp_completion = np.concatenate(
                (resp_completion, np.concatenate(hit_t_parts))
            )
            resp_values = np.concatenate(
                (resp_values, np.concatenate(hit_v_parts))
            )
        # Report response times in completion order, like the dispatcher
        # does (stable at ties: served completions before cache hits).
        response_times = resp_values[
            np.argsort(resp_completion, kind="stable")
        ]
        completions = int(response_times.size)

    # Residencies keyed by timeline label, accumulated in the order
    # (rung 0, parks, seek, active, wakes, descents) — for the two_state
    # ladder term for term the classic drive's (idle, standby, seek,
    # active, spinup, spindown).  Disks are grouped by their (ladder, spec)
    # pair and each group runs the rung-major arithmetic on its own
    # sub-vectors: a uniform pool is a single group, while a mixed pool
    # prices every drive against its own ladder depth and power table.
    groups: Dict[tuple, List[int]] = {}
    for d in range(num_disks):
        groups.setdefault((bank.ladders[d], specs[d]), []).append(d)
    energy_per_disk = np.zeros(num_disks, dtype=float)
    per_state: Dict = {}
    for (lad, spec_g), idx_list in groups.items():
        idx = np.asarray(idx_list, dtype=np.int64)
        rungs = lad.rungs
        R = len(rungs)
        park, down, wake = (
            [resid[idx, i] for i in range(R)] for resid in bank._rst
        )
        occupied = seek_time[idx] + active_time[idx]
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
        per_state_g["seek"] = seek_time[idx]
        per_state_g["active"] = active_time[idx]
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
    if classic:
        per_state = {CLASSIC_STATES[k]: v for k, v in per_state.items()}
    state_durations = {
        state: float(per_disk.sum())
        for state, per_disk in per_state.items()
        if per_disk.any()
    }

    extra = {}
    if dpm is not None:
        dpm.attach_power(
            _power_from_binner(binner, bank.ladders, specs, classic)
        )
        extra["dpm"] = dpm.extra()

    return SimulationResult(
        algorithm=label,
        duration=T,
        num_disks=num_disks,
        energy=float(energy_per_disk.sum()),
        energy_per_disk=energy_per_disk,
        state_durations=state_durations,
        response_times=response_times,
        arrivals=arrivals,
        completions=completions,
        spinups=int(spinups.sum()),
        spindowns=int(spindowns.sum()),
        always_on_energy=(
            num_disks * PowerModel(specs[0]).always_on_energy(T)
            if homogeneous
            else float(
                sum(PowerModel(s).always_on_energy(T) for s in specs)
            )
        ),
        cache_stats=cache.stats if cache is not None else None,
        requests_per_disk=req_count,
        spinups_per_disk=spinups,
        final_mapping=mapping,
        extra=extra,
        response_stats=stats,
    )
