"""Batched fast-path simulation kernel (``StorageConfig(engine="fast")``).

The event kernel (:mod:`repro.sim.environment`) replays one request at a
time through generator processes: every arrival costs several heap
operations, event allocations and coroutine hops.  That is flexible — it
supports arbitrary process interleavings — but it makes large parameter
sweeps (the paper's Figures 2-6 grids) simulation bound.

This module computes the same runs directly, without the event loop.  The
drive semantics are exactly those of :class:`~repro.disk.drive.DiskDrive`
(paper Figure 1): each disk is a FIFO queue whose service start follows a
Lindley recursion extended with the idleness-threshold spin-down / spin-up
transitions.  That per-disk recursion needs only two kinds of global
coupling, both handled here:

* **write allocation** — a write of a not-yet-mapped file inspects every
  disk's *current* spin state, free space and dispatched load through the
  configured :class:`~repro.system.placement.WritePlacementPolicy` (the
  paper's §1.1 ``spinning_best_fit`` by default), then updates the mapping
  for later requests;
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
per-rung :class:`_DiskBank` recursion.  There is one bank: a run without
a ladder is the ``two_state`` ladder of each disk's spec, reported under
the classic :class:`~repro.disk.power.DiskState` keys, and the seeded
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

Every policy in :data:`repro.system.placement.PLACEMENT_POLICIES` is
engine-agnostic: both kernels feed it the same
:class:`~repro.system.placement.PlacementContext` (spin mask, free bytes,
per-disk dispatched service seconds accumulated in the same per-request
order), so allocation decisions — and hence final file→disk mappings — are
byte-identical across engines; ``tests/experiments/test_engine_smoke.py``
iterates the registry to enforce this.

Execution strategy (fastest applicable path is chosen per run):

0. **the compiled serve core** (:mod:`repro.native`, C loaded through
   ``ctypes``): :func:`_serve_segment` hands a whole read-only segment to
   one C call, which groups it by disk with a counting sort and runs each
   disk's queue and ladder recursion, bit for bit the Python recursion
   (``tests/sim/serve_oracle.py`` keeps that loop as the test oracle).
   The grouped, segmented and controlled paths all serve through it, so
   ``engine="fast"`` needs a C compiler (the library is built once and
   cached under ``~/.cache/repro/native``); single requests at coupling
   points stay on :meth:`_DiskBank.serve` in Python;
1. **grouped** (read-only, no cache): the whole stream (or chunk) is one
   segment for the compiled core, each disk's queue advanced
   independently — the original fully batched path;
2. **segmented** (writes, no cache): only writes that *allocate* a new
   file couple the disks, so the stream is split at those coupling points
   and the compiled core replays each read-only segment between them;
   the allocation itself is resolved scalar against the banked per-disk
   spin state;
3. **coupled** (shared cache): a single globally time-merged pass walks
   arrivals in order, draining a min-heap of pending cache admissions
   (miss completions) between arrivals; the per-disk recursion state is
   identical, only advanced one request at a time;
4. **controlled** (a dynamic ``StorageConfig.dpm_policy``): the stream is
   segmented at control-interval boundaries and each interval replays
   through whichever of the three paths above applies, against a
   :class:`_DiskBank` holding *per-interval, per-disk* threshold
   vectors.  An idle gap is governed by the threshold in effect at the
   disk's drain instant (the event drive's already-armed timer), so the
   per-gap threshold is looked up from the drain time's interval.  At
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

from ctypes import byref
from heapq import heappop, heappush
from itertools import repeat
from math import inf
from typing import Dict, List, Optional

import numpy as np

from repro.disk.dpm import DpmLadder, make_dpm_ladder
from repro.disk.drive import WRITE
from repro.disk.fleet import ResolvedFleet
from repro.disk.power import DiskState, PowerModel
from repro.disk.specs import DiskSpec
from repro.errors import ConfigError, SimulationError
from repro.native import ServeArgs, serve_core
from repro.obs.hooks import active_observer
from repro.system.dispatcher import (
    initial_free_bytes,
    per_disk_capacities,
    validate_free_bytes,
)
from repro.system.metrics import ResponseAccumulator, SimulationResult
from repro.system.placement import (
    PlacementContext,
    WritePlacementPolicy,
    make_placement_policy,
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
#: memory stays bounded on long segments.
_LOG_CHUNK = 1 << 14


class _DiskBank:
    """Per-disk queue and DPM-ladder state with carry-in, shared by all paths.

    Evolves exactly the state the event kernel's drives evolve — per disk,
    the time it next falls idle plus per-rung park/descent/wake
    residencies — in plain Python lists, so single-request advances at
    coupling points (:meth:`serve`) stay cheap, while
    :func:`_serve_segment` replays whole read-only segments through the
    compiled core of :mod:`repro.native` over array copies of that state.
    The classic drive of paper Figure 1
    (:class:`~repro.disk.drive.DiskDrive`) is the ``two_state`` ladder: one
    descent rung whose descent, park and wake are SPINDOWN, STANDBY and
    SPINUP, with the classic recursion's arithmetic term for term.

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
    residencies are disk-major (``park_t[d][i]``), each row padded to the
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
        self.avail = [0.0] * num_disks
        # Cumulative dispatched service seconds per disk, accumulated one
        # request at a time (same order as the event dispatcher's ledger,
        # so load-comparing placement policies see bit-equal values).
        self.load = [0.0] * num_disks
        # Same-instant state snapshot for the placement policy's spin view:
        # ``pv[d]`` is disk ``d``'s ``avail`` as of the *start* of instant
        # ``pt[d]`` (the arrival time of its most recent serve).  The event
        # kernel's drive processes do not run between same-instant
        # submissions — the dispatcher submits a whole release batch in one
        # resumption — so a placement at time t must see the spin states as
        # they stood when the instant began, not mid-batch.
        self.pt = [float("-inf")] * num_disks
        self.pv = [0.0] * num_disks
        self.n_up = [0] * num_disks
        self.n_down = [0] * num_disks
        self.oh = [s.access_overhead for s in specs]
        self.rate = [s.transfer_rate for s in specs]
        self.oh_a = np.asarray(self.oh, dtype=float)
        self.rate_a = np.asarray(self.rate, dtype=float)
        self.ap = np.array([s.active_power for s in specs], dtype=float)
        self.cap = None  # per-disk usable bytes, set by _simulate_chunks
        self.T = horizon
        self.ladders = ladders
        self.R = [len(l.rungs) for l in ladders]
        self.maxR = max(self.R)
        self.dn = [[r.down_time for r in l.rungs] for l in ladders]
        self.wk = [[r.wake_time for r in l.rungs] for l in ladders]
        # Rung 0's park time is the horizon residual, computed at the end;
        # rungs past a disk's own ladder stay 0.
        self.park_t = [[0.0] * self.maxR for _ in range(num_disks)]
        self.down_t = [[0.0] * self.maxR for _ in range(num_disks)]
        self.wake_t = [[0.0] * self.maxR for _ in range(num_disks)]
        # Per-disk scaled-schedule caches (mixed fleets scale different
        # ladders with the same threshold).
        self._entry_cache: List[dict] = [{} for _ in range(num_disks)]
        # Descent schedules for the compiled core: one (disk, rung) matrix
        # per threshold row, padded with inf past each disk's ladder (a
        # one-rung ladder's schedule is (0, inf), hence at least 2 wide).
        width = max(self.maxR, 2)
        th = _per_disk_floats(thresholds, num_disks)
        if interval is None:
            self.entries: Optional[list] = [
                self._entries_for(d, th[d]) for d in range(num_disks)
            ]
            self._last_entry = np.array([e[-1] for e in self.entries])
            self._last_dn = np.array([dn[-1] for dn in self.dn])
            self.gap_log: Optional[List[list]] = None
            self._ent = np.full((1, num_disks, width), inf)
            self._th = None
        else:
            self.entries = None  # per-gap schedules from the history
            self.ci = float(interval)
            # One row per control interval; plain float lists because the
            # hot per-gap lookup (a list index) beats NumPy scalar
            # extraction by a wide margin.
            self._th_rows: List[List[float]] = [th]
            self.k = 0
            self.gap_log = [[] for _ in range(num_disks)]
            log_spans = True
            self._ent = np.full((8, num_disks, width), inf)
            self._th = np.empty((8, num_disks))
        self._set_schedule_row(0, th)
        if log_spans:
            # Keyed by rung index across the whole pool (entries carry the
            # disk id); maxR covers the deepest ladder in the mix.
            self.park_spans, self.down_spans, self.wake_spans = (
                [[] for _ in range(self.maxR)] for _ in range(3)
            )
        else:
            self.park_spans = self.down_spans = self.wake_spans = None
        self._init_core(num_disks, 0.0 if interval is None else self.ci)

    def _init_core(self, num_disks: int, ci: float) -> None:
        """Constant arrays, state buffers and record buffers the compiled
        core reads and writes; the lists above stay the owner of the
        state, copied in and out around each :func:`_serve_segment`
        call."""
        maxR = self.maxR
        self._core = serve_core()
        self._R_a = np.asarray(self.R, dtype=np.int64)
        self._dn_a = np.zeros((num_disks, maxR))
        self._wk_a = np.zeros((num_disks, maxR))
        for d in range(num_disks):
            self._dn_a[d, : self.R[d]] = self.dn[d]
            self._wk_a[d, : self.R[d]] = self.wk[d]
        self._fst = np.zeros((4, num_disks))  # avail, load, pt, pv
        self._ust = np.zeros((2, num_disks), dtype=np.int64)  # n_up, n_down
        self._rst = np.zeros((3, num_disks, maxR))  # park, down, wake
        self._gap_n = np.zeros(num_disks, dtype=np.int64)
        self._first = np.zeros(num_disks + 1, dtype=np.int64)
        self._key_n = np.zeros(3 * maxR, dtype=np.int64)
        def ptrs(rows):
            return [row.ctypes.data for row in rows]

        avail, load, pt, pv = ptrs(self._fst)
        n_up, n_down = ptrs(self._ust)
        park, down, wake = ptrs(self._rst)
        args = self._args = ServeArgs(
            D=num_disks, maxR=maxR, W=self._ent.shape[2], T=self.T, ci=ci,
            oh=self.oh_a.ctypes.data, R=self._R_a.ctypes.data,
            dn=self._dn_a.ctypes.data, wk=self._wk_a.ctypes.data,
            avail=avail, load=load, pt=pt, pv=pv, n_up=n_up, n_down=n_down,
            park=park, down=down, wake=wake,
            gap_n=self._gap_n.ctypes.data, first=self._first.ctypes.data,
            key_n=self._key_n.ctypes.data,
        )
        if self.gap_log is not None:
            self._gaps = np.empty((2, _LOG_CHUNK))  # gap, threshold
            args.gap_cap = _LOG_CHUNK
            args.gap_g, args.gap_th = ptrs(self._gaps)
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
        """Fill row ``k`` of the compiled core's schedule tables from the
        scaled-schedule cache (growing them when a controlled run outlives
        their capacity)."""
        if k == len(self._ent):
            self._ent = np.concatenate((self._ent, np.full_like(self._ent, inf)))
            self._th = np.concatenate((self._th, np.empty_like(self._th)))
        ent = self._ent[k]
        for d, th_d in enumerate(th):
            e = self._entries_for(d, th_d)
            ent[d, : len(e)] = e
        if self._th is not None:
            self._th[k] = th

    def push_thresholds(self, thresholds: np.ndarray) -> None:
        """Apply the vector decided at the boundary entering interval k+1."""
        row = np.asarray(thresholds, dtype=float).tolist()
        self._th_rows.append(row)
        self.k += 1
        self._set_schedule_row(self.k, row)

    def _th_at(self, drain: float, d: int) -> float:
        """Threshold governing a gap that began at ``drain`` on disk ``d``."""
        idx = int(drain / self.ci)
        if idx > self.k:
            idx = self.k
        return self._th_rows[idx][d]

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

    def _gap_entries(self, d: int, drain: float) -> tuple:
        """Schedule governing a gap that began at ``drain`` on disk ``d``."""
        if self.entries is not None:
            return self.entries[d]
        return self._entries_for(d, self._th_at(drain, d))

    def _descend(self, d: int, a: float, t: float, entries) -> float:
        """Walk the idle gap ``[a, t)`` down disk ``d``'s ladder; returns
        the wake completion (service start) and bills every residency
        touched."""
        g = t - a
        T = self.T
        dn = self.dn[d]
        R = self.R[d]
        down_t = self.down_t[d]
        park_t = self.park_t[d]
        spans = self.park_spans is not None
        i = 1
        while i + 1 < R and g > entries[i + 1]:
            i += 1
        for j in range(1, i):
            # Rungs fully traversed before the arrival: full descent plus
            # park until the next rung's descent starts (all before t < T).
            ds = a + entries[j]
            de = ds + dn[j]
            down_t[j] += de - ds
            if spans:
                self.down_spans[j].append((d, ds, de))
            pe = a + entries[j + 1]
            if pe > de:
                park_t[j] += pe - de
                if spans:
                    self.park_spans[j].append((d, de, pe))
        ds = a + entries[i]
        de = ds + dn[i]
        self.n_down[d] += i
        down_t[i] += min(de, T) - ds
        if spans:
            self.down_spans[i].append((d, ds, de))
        if t >= de:
            park_t[i] += t - de
            if spans:
                self.park_spans[i].append((d, de, t))
            ws = t
        else:
            # Arrived mid-descent: the transition is not abortable.
            ws = de
        w = self.wk[d][i]
        if ws < T:
            self.n_up[d] += 1
            self.wake_t[d][i] += min(ws + w, T) - ws
            if spans:
                self.wake_spans[i].append((d, ws, ws + w))
        return ws + w

    def serve(self, d: int, t: float, tr: float) -> float:
        """Queue one request on disk ``d`` arriving at ``t``; returns the
        service start (the event kernel's seek entry time)."""
        a = self.avail[d]
        if t != self.pt[d]:
            self.pt[d] = t
            self.pv[d] = a
        if t > a:
            if self.entries is None:
                th = self._th_at(a, d)
                self.gap_log[d].append((t - a, th))
                entries = self._entries_for(d, th)
            else:
                entries = self.entries[d]
            # A gap never exceeds an inf entry: such disks never descend.
            s = t if t - a <= entries[1] else self._descend(d, a, t, entries)
        else:
            s = a
        self.avail[d] = s + self.oh[d] + tr
        self.load[d] += self.oh[d] + tr
        return s

    def spinning_mask(self, t: float) -> np.ndarray:
        """Per-disk "not parked in the deepest rung at ``t``" — the §1.1
        write policy's view of the pool.

        Descents, intermediate rungs and wakes all count as spinning, like
        :attr:`~repro.disk.power.DiskState.spinning` counts SPINDOWN: a
        drained disk is spinning until its last descent ends, and a disk
        still working (``t < avail``) always is, because a pending request
        rides the transitions straight back up.  Same-instant earlier
        serves are excluded via the instant-start snapshot: a disk woken
        at exactly ``t`` still reads parked, like the event kernel's
        not-yet-resumed drive process.
        """
        avail = np.array(self.avail, dtype=float)
        if t in self.pt:
            same = np.array(self.pt) == t
            avail[same] = np.array(self.pv, dtype=float)[same]
        # inf entry => a + inf == inf => always spinning.
        if self.entries is not None:
            return t < (avail + self._last_entry) + self._last_dn
        out = np.empty(len(avail), dtype=bool)
        for d, a in enumerate(avail.tolist()):
            out[d] = t < (a + self._gap_entries(d, a)[-1]) + self.dn[d][-1]
        return out

    def apply_tail(self):
        """Trailing-idleness pass at the horizon: every disk (including
        ones that never served a request) descends through each rung whose
        entry falls before the horizon, with parks clipped at it.  Returns
        per-disk ``(spinups, spindowns)`` arrays."""
        T = self.T
        spans = self.park_spans is not None
        for d, a in enumerate(self.avail):
            entries = self._gap_entries(d, a)
            R = self.R[d]
            dn = self.dn[d]
            down_t = self.down_t[d]
            park_t = self.park_t[d]
            for i in range(1, R):
                ds = a + entries[i]
                if ds >= T:
                    break
                de = ds + dn[i]
                self.n_down[d] += 1
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
        return (
            np.asarray(self.n_up, dtype=np.int64),
            np.asarray(self.n_down, dtype=np.int64),
        )


def _allocate_for_write(
    bank: _DiskBank,
    policy: WritePlacementPolicy,
    free: np.ndarray,
    size: float,
    t: float,
) -> int:
    """Placement for a new file at time ``t``: the shared registry policy
    decides against the banked spin state / free bytes / dispatched load
    (plus the per-disk capacity and power-rank views a mixed fleet adds),
    so both engines pick byte-identical disks."""
    ctx = PlacementContext(
        time=t,
        spinning=bank.spinning_mask(t),
        free=free,
        load=bank.load,
        capacity=bank.cap,
        active_power=bank.ap,
    )
    return policy.choose(ctx, size)


def _serve_segment(
    bank: _DiskBank,
    d_seg: np.ndarray,
    t_seg: np.ndarray,
    tr_seg: np.ndarray,
    starts_out: np.ndarray,
) -> None:
    """Replay one read-only segment through the compiled serve core.

    ``d_seg`` must be fully resolved (no ``-1``; callers validate); times
    are globally non-decreasing, so the core's stable counting sort by
    disk preserves each disk's arrival order.  ``starts_out`` (a view onto
    the segment's slice of the global starts array) is filled in place.
    The bank's per-disk state is copied into the core's arrays once and
    back once.  Gap-log and span records come back disk-major, in arrival
    order inside each disk (the order the Python loop appended them in),
    at most :data:`_LOG_CHUNK` per call: the core then stops, and resumes
    once they are appended to the bank's logs.
    """
    n = int(d_seg.size)
    if not n:
        return
    if not t_seg.size == tr_seg.size == starts_out.size == n:
        raise SimulationError(
            f"segment arrays differ in length: {n} disks, {t_seg.size} "
            f"times, {tr_seg.size} transfers, {starts_out.size} starts"
        )
    disk = np.ascontiguousarray(d_seg, dtype=np.int64)
    t = np.ascontiguousarray(t_seg, dtype=float)
    tr = np.ascontiguousarray(tr_seg, dtype=float)
    direct = starts_out.flags.c_contiguous and starts_out.dtype == float
    starts = starts_out if direct else np.empty(n)
    order = np.empty(n, dtype=np.int64)
    args = bank._args
    args.n = n
    args.disk = disk.ctypes.data
    args.t = t.ctypes.data
    args.tr = tr.ctypes.data
    args.starts = starts.ctypes.data
    args.order = order.ctypes.data
    args.ent = bank._ent.ctypes.data
    gap_log = bank.gap_log
    if gap_log is not None:
        args.th = bank._th.ctypes.data
        args.k = bank.k
    spans = bank.park_spans is not None
    if spans:
        logs = (bank.park_spans, bank.down_spans, bank.wake_spans)
        maxR = bank.maxR
    bank._fst[:] = (bank.avail, bank.load, bank.pt, bank.pv)
    bank._ust[:] = (bank.n_up, bank.n_down)
    bank._rst[:] = (bank.park_t, bank.down_t, bank.wake_t)
    core = bank._core
    ref = byref(args)
    pos = 0
    while pos < n:
        pos = core(ref, pos)
        if pos < 0:
            raise SimulationError(
                f"segment references a disk outside the {len(bank.avail)}-"
                "disk pool"
            )
        if gap_log is not None and args.n_gap:
            m = args.n_gap
            pairs = list(zip(*bank._gaps[:, :m].tolist()))
            lo = 0
            for d, c in enumerate(bank._gap_n.tolist()):
                if c:
                    gap_log[d] += pairs[lo : lo + c]
                    lo += c
        if spans and args.n_span:
            m = args.n_span
            d_l = bank._span_i[2, :m].tolist()
            s_l, e_l = bank._span_f[2:, :m].tolist()
            lo = 0
            for key, c in enumerate(bank._key_n.tolist()):
                if c:
                    kind, i = divmod(key, maxR)
                    hi = lo + c
                    logs[kind][i].extend(zip(d_l[lo:hi], s_l[lo:hi], e_l[lo:hi]))
                    lo = hi
    bank.avail, bank.load, bank.pt, bank.pv = bank._fst.tolist()
    bank.n_up, bank.n_down = bank._ust.tolist()
    bank.park_t, bank.down_t, bank.wake_t = bank._rst.tolist()
    if not direct:
        starts_out[:] = starts


def _serve_segmented(
    bank: _DiskBank,
    policy: WritePlacementPolicy,
    mapping: np.ndarray,
    free: np.ndarray,
    sizes: np.ndarray,
    fid: np.ndarray,
    t_all: np.ndarray,
    sz_all: np.ndarray,
    is_write: np.ndarray,
    starts: np.ndarray,
    d_req: np.ndarray,
    obs=None,
) -> None:
    """Mixed read/write stream without a cache.

    Only the *first* touch of an initially-unmapped file couples the disks
    (it runs the placement policy against global spin/load state);
    everything between those coupling points is replayed through the
    vectorized per-disk recursion with carried-in state.  Transfer times
    are resolved here, once the serving disk is known — per-disk rates on
    a mixed fleet make them a property of the (request, disk) pair.
    """
    rate_a = bank.rate_a
    unmapped = np.flatnonzero(mapping[fid] < 0)
    if unmapped.size:
        _, first = np.unique(fid[unmapped], return_index=True)
        boundaries = np.sort(unmapped[first])
    else:
        boundaries = np.empty(0, dtype=np.int64)

    prev = 0
    for b in boundaries.tolist():
        if b > prev:
            seg = slice(prev, b)
            d_seg = mapping[fid[seg]]
            bad = np.flatnonzero(d_seg < 0)
            if bad.size:
                raise SimulationError(
                    f"read of unallocated file {int(fid[prev + bad[0]])}; "
                    "allocate it first"
                )
            _serve_segment(
                bank, d_seg, t_all[seg], sz_all[seg] / rate_a[d_seg],
                starts[seg],
            )
            d_req[seg] = d_seg
        f = int(fid[b])
        if not is_write[b]:
            raise SimulationError(
                f"read of unallocated file {f}; allocate it first"
            )
        t = float(t_all[b])
        size = float(sizes[f])
        d = _allocate_for_write(bank, policy, free, size, t)
        if obs is not None:
            obs.on_placement(t, f, d)
        mapping[f] = d
        free[d] -= size
        starts[b] = bank.serve(d, t, size / bank.rate[d])
        d_req[b] = d
        prev = b + 1

    tail = slice(prev, int(t_all.size))
    d_tail = mapping[fid[tail]]
    bad = np.flatnonzero(d_tail < 0)
    if bad.size:
        raise SimulationError(
            f"read of unallocated file {int(fid[prev + bad[0]])}; "
            "allocate it first"
        )
    _serve_segment(
        bank, d_tail, t_all[tail], sz_all[tail] / rate_a[d_tail], starts[tail]
    )
    d_req[tail] = d_tail


def _serve_coupled(
    bank: _DiskBank,
    policy: WritePlacementPolicy,
    mapping: np.ndarray,
    free: np.ndarray,
    sizes: np.ndarray,
    fid: np.ndarray,
    t_all: np.ndarray,
    is_write: Optional[np.ndarray],
    cache,
    starts: np.ndarray,
    d_req: np.ndarray,
    heap: list,
    base_index: int,
    map_l: list,
    size_l: list,
    obs=None,
    victims: Optional[list] = None,
) -> None:
    """Globally time-merged pass for shared-cache runs (writes optional).

    Reads look the cache up at arrival and, on a miss, schedule an
    admission at their completion time; a min-heap drains those admissions
    in completion order between arrivals, reproducing the event kernel's
    interleaving (hit short-circuit, admit-on-miss-completion).  Ties
    (admission exactly at an arrival instant) admit first; admissions at or
    after the horizon never happen, exactly like the event kernel's URGENT
    stop pre-empting completion events at ``T``.

    Called once per batch (chunk, control interval or release batch):
    ``heap`` carries pending admissions across the calls (the caller
    drains the rest at the horizon), ``base_index`` keeps the heap's
    tie-break sequence global, and ``map_l``/``size_l`` reuse one list
    materialization of the (large) per-file arrays across all batches
    (``map_l`` is kept in sync with ``mapping`` on every allocation, so
    sharing it is safe).

    Under an observer, cache events are collected as ``(time, kind,
    file_id)`` tuples and handed over in one ``obs.on_cache_events`` call,
    even when the pass raises.  ``victims`` is the list the cache's
    ``evict_hook`` appends to; each admission's victims are stamped with
    its completion time.
    """
    lookup = cache.lookup
    admit = cache.admit
    serve = bank.serve
    oh_l = bank.oh
    rate_l = bank.rate
    T = bank.T
    events: Optional[list] = [] if obs is not None else None
    emit = events.append if events is not None else None
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
                    d = _allocate_for_write(bank, policy, free, size, t)
                    if obs is not None:
                        obs.on_placement(t, f, d)
                    map_l[f] = d
                    mapping[f] = d
                    free[d] -= size
                put_start(serve(d, t, size_l[f] / rate_l[d]))
                put_disk(d)
                continue
            size = size_l[f]
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
            s = serve(d, t, tr)
            put_start(s)
            put_disk(d)
            c = s + oh_l[d] + tr
            if c < T:
                heappush(heap, (c, base_index + i, f, size))
    finally:
        if events:
            obs.on_cache_events(events)
    starts[:] = start_l
    d_req[:] = disk_l


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

    * arrivals are processed one control interval at a time through
      whichever of the grouped/segmented/coupled paths applies; an
      interval whose arrivals span several chunks is served in several
      sub-slices (the per-disk recursion carries exactly, and the coupled
      pass's heap tie-break uses the *global* arrival index ``n_seen``);
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
        # The run's batch server (see _simulate_chunks): routes a slice
        # through the grouped/segmented/coupled path that applies.
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
        d_req[sl] = self.serve(
            fid[sl], t_all[sl], sz_all[sl],
            None if is_write is None else is_write[sl],
            starts[sl], self.n_seen + lo,
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


#: Timeline labels of the ``two_state`` ladder -> the classic drive's
#: states, under which runs without a ladder report their residencies
#: and observer spans.
_CLASSIC_STATES = {
    "idle": DiskState.IDLE,
    "standby": DiskState.STANDBY,
    "seek": DiskState.SEEK,
    "active": DiskState.ACTIVE,
    "wake:standby": DiskState.SPINUP,
    "down:standby": DiskState.SPINDOWN,
}


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
    like every accounting path, and named by :data:`_CLASSIC_STATES` on a
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
                        name = _CLASSIC_STATES[name].value
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
    :class:`~repro.cache.base.BaseCache` instance (hits respond with
    ``cache_hit_latency``); ``usable_capacity`` is the per-disk byte budget
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
    sizes = np.asarray(sizes, dtype=float)
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
    # its results keep DiskState keys through _CLASSIC_STATES.
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

    # Cache plumbing shared by every chunk: one heap of pending admissions
    # and one list materialization of the (large) per-file arrays
    # (``map_l`` is kept in sync with ``mapping`` on every allocation).
    heap: Optional[list] = [] if cache is not None else None
    map_l = mapping.tolist() if cache is not None else None
    size_l = sizes.tolist() if cache is not None else None

    # Evictions happen inside ``cache.admit``, which has no notion of
    # simulated time: under an observer the cache's evict hook appends the
    # victims here, and the admitting loop stamps them with its time.
    victims: Optional[list] = None
    if obs is not None and cache is not None:
        victims = []

    def serve(fid_c, t_c, sz_c, w_c, starts_c, base) -> np.ndarray:
        """Serve one time-sorted batch through whichever path applies —
        coupled (shared cache), segmented (writes) or grouped (reads) —
        filling ``starts_c`` in place; returns each request's disk (-1 for
        a cache hit).  ``base`` is the batch's global arrival index (the
        cache heap's tie-break)."""
        if cache is None and w_c is None:
            d_c = mapping[fid_c]
            if int(d_c.min()) < 0:
                bad_f = int(fid_c[int(np.argmin(d_c))])
                raise SimulationError(
                    f"read of unallocated file {bad_f}; allocate it first"
                )
            _serve_segment(bank, d_c, t_c, sz_c / bank.rate_a[d_c], starts_c)
            return d_c
        d_c = np.empty(t_c.size, dtype=np.int64)
        if cache is not None:
            _serve_coupled(
                bank, policy, mapping, free, sizes, fid_c, t_c, w_c, cache,
                starts_c, d_c, heap, base, map_l, size_l, obs, victims,
            )
        else:
            _serve_segmented(
                bank, policy, mapping, free, sizes, fid_c, t_c, sz_c, w_c,
                starts_c, d_c, obs=obs,
            )
        return d_c

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
    # The per-disk byte budget the placement context exposes (same values
    # the event dispatcher hands its policies).
    bank.cap = per_disk_capacities(usable, num_disks)

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
        if driver is not None:
            d_req_c = np.empty(n_c, dtype=np.int64)
            driver.feed(fid_c, t_c, sz_c, w_c, starts_c, d_req_c, holds_c)
        else:
            d_req_c = serve(fid_c, t_c, sz_c, w_c, starts_c, arrivals)
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

    if victims is not None:
        cache.evict_hook = victims.append
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
            # The event kernel's cutoff is strict: the URGENT stop event at T
            # pre-empts arrival and completion events scheduled at exactly T.
            censored = bool(t_all[-1] >= T)
            if censored:
                cut = int(np.searchsorted(t_all, T, side="left"))
                if not cut:
                    break
                t_all = t_all[:cut]
                n = cut
            fid = np.asarray(chunk.file_ids, dtype=np.int64)[:n]
            kinds = getattr(chunk, "kinds", None)
            is_write: Optional[np.ndarray] = None
            if kinds is not None:
                w = np.asarray(kinds)[:n] == WRITE
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
            # Admissions pending at the horizon never happen (the event
            # kernel's stop event pre-empts completions at T).
            admit = cache.admit
            events: list = []
            try:
                while heap and heap[0][0] < T:
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
    finally:
        # The cache may be the caller's: never leave the hook installed,
        # not even when the run raises.
        if victims is not None:
            cache.evict_hook = None

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
        park = [
            np.array([bank.park_t[d][i] for d in idx_list], dtype=float)
            for i in range(R)
        ]
        down = [
            np.array([bank.down_t[d][i] for d in idx_list], dtype=float)
            for i in range(R)
        ]
        wake = [
            np.array([bank.wake_t[d][i] for d in idx_list], dtype=float)
            for i in range(R)
        ]
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
        per_state = {_CLASSIC_STATES[k]: v for k, v in per_state.items()}
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
