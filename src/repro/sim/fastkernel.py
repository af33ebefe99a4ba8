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
per-rung :class:`_LadderBank` recursion; the ``two_state`` preset is
byte-identical to the classic :class:`_DiskBank` path, and the seeded
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

1. **grouped** (read-only, no cache): the stream is pre-sorted into
   per-disk NumPy groups and each disk's queue is advanced independently —
   the original fully batched path;
2. **segmented** (writes, no cache): only writes that *allocate* a new
   file couple the disks, so the stream is split at those coupling points
   and the same vectorized per-disk recursion replays each read-only
   segment between them; the allocation itself is resolved scalar against
   the banked per-disk spin state;
3. **coupled** (shared cache): a single globally time-merged pass walks
   arrivals in order, draining a min-heap of pending cache admissions
   (miss completions) between arrivals; the per-disk recursion state is
   identical, only advanced one request at a time;
4. **controlled** (a dynamic ``StorageConfig.dpm_policy``): the stream is
   segmented at control-interval boundaries and each interval replays
   through whichever of the three paths above applies, against a
   :class:`_ControlledBank` holding *per-interval, per-disk* threshold
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

from heapq import heappop, heappush
from math import isinf
from typing import Dict, List, Optional

import numpy as np

from repro.disk.dpm import DpmLadder
from repro.disk.drive import READ, WRITE
from repro.disk.fleet import ResolvedFleet
from repro.disk.power import DiskState, PowerModel
from repro.disk.specs import DiskSpec
from repro.errors import ConfigError, SimulationError
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


class _DiskBank:
    """Scalar per-disk queue/power state with carry-in, shared by all paths.

    Holds exactly the state the event kernel's ``DiskDrive`` evolves — the
    time each disk next falls idle plus spin-transition accounting — in
    plain Python lists, so single-request advances at coupling points stay
    cheap while :meth:`serve_batch` replays a whole per-disk FIFO segment
    with hoisted locals.

    Heterogeneous fleets: every spec-derived constant (spin-down/up times,
    access overhead, transfer rate) and the idleness threshold are held as
    one value *per disk*.  ``spec``/``threshold`` accept a scalar (tiled
    across the pool — a uniform fleet, bit-identical to the historical
    scalar recursion) or a per-disk sequence/vector.
    """

    __slots__ = (
        "avail", "sd_t", "su_t", "sb_t", "n_up", "n_down", "load",
        "th", "no_spindown", "D", "U", "oh", "rate", "oh_a", "rate_a",
        "ap", "cap", "T", "pt", "pv",
    )

    def __init__(
        self, num_disks: int, threshold, spec, horizon: float
    ) -> None:
        specs = _per_disk_specs(spec, num_disks)
        self.avail = [0.0] * num_disks
        self.sd_t = [0.0] * num_disks
        self.su_t = [0.0] * num_disks
        self.sb_t = [0.0] * num_disks
        self.n_up = [0] * num_disks
        self.n_down = [0] * num_disks
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
        self.th = _per_disk_floats(threshold, num_disks)
        self.no_spindown = all(isinf(t) for t in self.th)
        self.D = [s.spindown_time for s in specs]
        self.U = [s.spinup_time for s in specs]
        self.oh = [s.access_overhead for s in specs]
        self.rate = [s.transfer_rate for s in specs]
        self.oh_a = np.asarray(self.oh, dtype=float)
        self.rate_a = np.asarray(self.rate, dtype=float)
        self.ap = np.array([s.active_power for s in specs], dtype=float)
        self.cap = None  # per-disk usable bytes, set by _simulate_chunks
        self.T = horizon

    def serve(self, d: int, t: float, tr: float) -> float:
        """Queue one request on disk ``d`` arriving at ``t``; returns the
        service start (the event kernel's SEEK entry time)."""
        a = self.avail[d]
        if t != self.pt[d]:
            self.pt[d] = t
            self.pv[d] = a
        if t > a:
            # gap > inf is never true, so an inf-threshold disk never
            # spins down — no separate no_spindown guard needed.
            if t - a > self.th[d]:
                # Idleness timer expired at a+th: spin down (not abortable),
                # sleep, then spin up on this arrival.
                sd = a + self.th[d]
                sd_end = sd + self.D[d]
                self.n_down[d] += 1
                self.sd_t[d] += min(sd_end, self.T) - sd
                if t >= sd_end:
                    self.sb_t[d] += t - sd_end
                    su = t
                else:
                    su = sd_end
                if su < self.T:
                    self.n_up[d] += 1
                    self.su_t[d] += min(su + self.U[d], self.T) - su
                s = su + self.U[d]
            else:
                s = t
        else:
            s = a
        self.avail[d] = s + self.oh[d] + tr
        self.load[d] += self.oh[d] + tr
        return s

    def serve_batch(self, d: int, ts: list, trs: list) -> List[float]:
        """Advance disk ``d`` through a FIFO run of requests; returns the
        service starts.  Identical recursion to :meth:`serve`, with the
        per-disk state hoisted into locals for the long read-only runs."""
        out: List[float] = []
        append = out.append
        a = self.avail[d]
        oh = self.oh[d]
        ld = self.load[d]
        th = self.th[d]
        if isinf(th):
            # Pure Lindley recursion: serve at max(arrival, free time).
            for t, tr in zip(ts, trs):
                s = t if t > a else a
                append(s)
                a = s + oh + tr
                ld += oh + tr
        else:
            D = self.D[d]
            U = self.U[d]
            T = self.T
            sd_t = self.sd_t[d]
            su_t = self.su_t[d]
            sb_t = self.sb_t[d]
            n_up = self.n_up[d]
            n_down = self.n_down[d]
            pt_d = self.pt[d]
            pv_d = self.pv[d]
            for t, tr in zip(ts, trs):
                if t != pt_d:
                    pt_d = t
                    pv_d = a
                if t > a:
                    if t - a > th:
                        sd = a + th
                        sd_end = sd + D
                        n_down += 1
                        sd_t += min(sd_end, T) - sd
                        if t >= sd_end:
                            sb_t += t - sd_end
                            su = t
                        else:
                            su = sd_end
                        if su < T:
                            n_up += 1
                            su_t += min(su + U, T) - su
                        s = su + U
                    else:
                        s = t
                else:
                    s = a
                append(s)
                a = s + oh + tr
                ld += oh + tr
            self.sd_t[d] = sd_t
            self.su_t[d] = su_t
            self.sb_t[d] = sb_t
            self.n_up[d] = n_up
            self.n_down[d] = n_down
            self.pt[d] = pt_d
            self.pv[d] = pv_d
        self.avail[d] = a
        self.load[d] = ld
        return out

    def _avail_at_instant_start(self, t: float) -> List[float]:
        """Per-disk ``avail`` as the event kernel's placement context would
        see it at instant ``t``: serves that happened *at* ``t`` itself are
        rolled back to the snapshot taken when the instant began (the event
        engine's drive processes have not run yet mid-batch)."""
        pt = self.pt
        pv = self.pv
        return [
            pv[d] if pt[d] == t else a for d, a in enumerate(self.avail)
        ]

    def spinning_mask(self, t: float) -> np.ndarray:
        """Per-disk "not STANDBY at time ``t``" — the §1.1 write policy's
        view of the pool.

        Mirrors :attr:`~repro.disk.power.DiskState.spinning`: SEEK/ACTIVE/
        IDLE/SPINUP *and SPINDOWN* all count as spinning.  A drained disk is
        IDLE until ``avail + th``, SPINDOWN until ``avail + th + D``, and
        STANDBY after; a disk still working (``t < avail``) is never in
        STANDBY because a pending request always rides the spin transitions
        straight back up.  Same-instant earlier serves are excluded via the
        instant-start snapshot: a disk woken at exactly ``t`` still reads
        STANDBY, like the event kernel's not-yet-resumed drive process.
        """
        avail = np.asarray(self._avail_at_instant_start(t))
        if self.no_spindown:
            return np.ones(avail.shape, dtype=bool)
        # inf-threshold disks get avail + inf == inf: always spinning.
        return t < avail + np.asarray(self.th) + np.asarray(self.D)

    def tail_arrays(self):
        """Spin/transition accounting as arrays, with trailing idleness.

        Called once at the horizon: every disk (including ones that never
        served a request) spins down once its post-drain idle gap exceeds
        the threshold, provided the timer fires before the horizon.
        Returns ``(spindown_time, spinup_time, standby_time, spinups,
        spindowns)`` per disk.
        """
        avail = np.asarray(self.avail, dtype=float)
        spindown_time = np.asarray(self.sd_t, dtype=float)
        spinup_time = np.asarray(self.su_t, dtype=float)
        standby_time = np.asarray(self.sb_t, dtype=float)
        spinups = np.asarray(self.n_up, dtype=np.int64)
        spindowns = np.asarray(self.n_down, dtype=np.int64)
        if not self.no_spindown:
            # Per-disk vectors; an inf-threshold disk's sd is inf, so its
            # tail mask is False and every where() contribution is 0.
            sd = avail + np.asarray(self.th)
            tail = sd < self.T
            spindowns = spindowns + tail
            sd_end = sd + np.asarray(self.D)
            spindown_time = spindown_time + np.where(
                tail, np.minimum(sd_end, self.T) - sd, 0.0
            )
            standby_time = standby_time + np.where(
                tail, np.clip(self.T - sd_end, 0.0, None), 0.0
            )
        return spindown_time, spinup_time, standby_time, spinups, spindowns


class _ControlledBank(_DiskBank):
    """Per-interval, per-disk threshold variant of :class:`_DiskBank`.

    Used by the controlled execution path (dynamic DPM policies).  The
    threshold governing an idle gap is the one in effect at the disk's
    *drain* instant — resolved by looking the drain time's control
    interval up in ``_th_rows`` (the history of applied threshold
    vectors).  By the time a gap's closing arrival is processed, its
    drain interval has necessarily been reached, so the lookup is always
    resolvable (FIFO per disk; arrivals are processed in time order).

    Also logs what the fixed-path bank does not need: per-disk closed
    idle gaps ``(gap, threshold_at_drain)`` for the control telemetry,
    and every spin-transition episode as ``(disk, start, end)`` spans so
    the per-interval power trace can be reconstructed after the run.
    An infinite per-disk threshold needs no special casing: ``gap > inf``
    is never true, so such disks simply never spin down.
    """

    __slots__ = (
        "ci", "_th_rows", "k", "gap_log", "sd_spans", "su_spans", "sb_spans",
    )

    def __init__(
        self,
        num_disks: int,
        init_thresholds: np.ndarray,
        spec,
        horizon: float,
        interval: float,
    ) -> None:
        super().__init__(num_disks, 0.0, spec, horizon)
        # Static thresholds unused in controlled mode (gaps resolve
        # against the applied-vector history instead).
        self.th = [float("nan")] * num_disks
        self.no_spindown = False
        self.ci = float(interval)
        # One row per control interval; plain float lists because the hot
        # per-gap lookup (a python list index) beats NumPy scalar
        # extraction by a wide margin.
        self._th_rows: List[List[float]] = [
            np.asarray(init_thresholds, dtype=float).tolist()
        ]
        self.k = 0
        self.gap_log: List[List[tuple]] = [[] for _ in range(num_disks)]
        self.sd_spans: List[tuple] = []
        self.su_spans: List[tuple] = []
        self.sb_spans: List[tuple] = []

    def push_thresholds(self, thresholds: np.ndarray) -> None:
        """Apply the vector decided at the boundary entering interval k+1."""
        self._th_rows.append(np.asarray(thresholds, dtype=float).tolist())
        self.k += 1

    def _th_at(self, drain: float, d: int) -> float:
        """Threshold governing a gap that began at ``drain`` on disk ``d``."""
        idx = int(drain / self.ci)
        if idx > self.k:
            idx = self.k
        return self._th_rows[idx][d]

    def serve(self, d: int, t: float, tr: float) -> float:
        """:meth:`_DiskBank.serve` with the per-gap threshold lookup,
        gap logging and transition-span logging."""
        a = self.avail[d]
        if t != self.pt[d]:
            self.pt[d] = t
            self.pv[d] = a
        if t > a:
            th = self._th_at(a, d)
            self.gap_log[d].append((t - a, th))
            if t - a > th:
                sd = a + th
                sd_end = sd + self.D[d]
                self.n_down[d] += 1
                self.sd_t[d] += min(sd_end, self.T) - sd
                self.sd_spans.append((d, sd, sd_end))
                if t >= sd_end:
                    self.sb_t[d] += t - sd_end
                    self.sb_spans.append((d, sd_end, t))
                    su = t
                else:
                    su = sd_end
                if su < self.T:
                    self.n_up[d] += 1
                    self.su_t[d] += min(su + self.U[d], self.T) - su
                    self.su_spans.append((d, su, su + self.U[d]))
                s = su + self.U[d]
            else:
                s = t
        else:
            s = a
        self.avail[d] = s + self.oh[d] + tr
        self.load[d] += self.oh[d] + tr
        return s

    def serve_batch(self, d: int, ts: list, trs: list) -> List[float]:
        """Hoisted-locals FIFO replay with the per-gap threshold lookup.

        Identical recursion to :meth:`serve`; only the per-disk state (and
        the threshold-history rows) are lifted into locals for the long
        read-only runs between coupling points.
        """
        out: List[float] = []
        append = out.append
        a = self.avail[d]
        oh = self.oh[d]
        ld = self.load[d]
        ci = self.ci
        th_rows = self._th_rows
        k = self.k
        D = self.D[d]
        U = self.U[d]
        T = self.T
        sd_t = self.sd_t[d]
        su_t = self.su_t[d]
        sb_t = self.sb_t[d]
        n_up = self.n_up[d]
        n_down = self.n_down[d]
        gap_append = self.gap_log[d].append
        sd_spans = self.sd_spans
        su_spans = self.su_spans
        sb_spans = self.sb_spans
        pt_d = self.pt[d]
        pv_d = self.pv[d]
        for t, tr in zip(ts, trs):
            if t != pt_d:
                pt_d = t
                pv_d = a
            if t > a:
                idx = int(a / ci)
                th = th_rows[idx if idx <= k else k][d]
                gap_append((t - a, th))
                if t - a > th:
                    sd = a + th
                    sd_end = sd + D
                    n_down += 1
                    sd_t += min(sd_end, T) - sd
                    sd_spans.append((d, sd, sd_end))
                    if t >= sd_end:
                        sb_t += t - sd_end
                        sb_spans.append((d, sd_end, t))
                        su = t
                    else:
                        su = sd_end
                    if su < T:
                        n_up += 1
                        su_t += min(su + U, T) - su
                        su_spans.append((d, su, su + U))
                    s = su + U
                else:
                    s = t
            else:
                s = a
            append(s)
            a = s + oh + tr
            ld += oh + tr
        self.sd_t[d] = sd_t
        self.su_t[d] = su_t
        self.sb_t[d] = sb_t
        self.n_up[d] = n_up
        self.n_down[d] = n_down
        self.pt[d] = pt_d
        self.pv[d] = pv_d
        self.avail[d] = a
        self.load[d] = ld
        return out

    def spinning_mask(self, t: float) -> np.ndarray:
        out = np.empty(len(self.avail), dtype=bool)
        for d, a in enumerate(self._avail_at_instant_start(t)):
            # inf threshold => a + inf == inf => always spinning.
            out[d] = t < a + self._th_at(a, d) + self.D[d]
        return out

    def tail_arrays(self):
        spindown_time = np.asarray(self.sd_t, dtype=float)
        spinup_time = np.asarray(self.su_t, dtype=float)
        standby_time = np.asarray(self.sb_t, dtype=float)
        spinups = np.asarray(self.n_up, dtype=np.int64)
        spindowns = np.asarray(self.n_down, dtype=np.int64).copy()
        T = self.T
        for d, a in enumerate(self.avail):
            sd = a + self._th_at(a, d)
            if sd < T:
                spindowns[d] += 1
                sd_end = sd + self.D[d]
                spindown_time[d] += min(sd_end, T) - sd
                self.sd_spans.append((d, sd, sd_end))
                if sd_end < T:
                    standby_time[d] += T - sd_end
                    self.sb_spans.append((d, sd_end, T))
        return spindown_time, spinup_time, standby_time, spinups, spindowns


class _ObservedDiskBank(_DiskBank):
    """:class:`_DiskBank` plus spin-transition span logging for observers.

    Selected (once, at run start) when a fixed-threshold run carries an
    enabled :class:`~repro.obs.hooks.RunObserver`, so the unobserved hot
    path stays untouched.  The recursion and every accounting update are
    copied verbatim from the base class — the only additions are the
    ``(disk, start, end)`` span appends the controlled bank already
    performs; the differential harness's observer axis asserts observed
    and unobserved runs are bit-identical.
    """

    __slots__ = ("sd_spans", "su_spans", "sb_spans")

    def __init__(
        self, num_disks: int, threshold, spec, horizon: float
    ) -> None:
        super().__init__(num_disks, threshold, spec, horizon)
        self.sd_spans: List[tuple] = []
        self.su_spans: List[tuple] = []
        self.sb_spans: List[tuple] = []

    def serve(self, d: int, t: float, tr: float) -> float:
        a = self.avail[d]
        if t != self.pt[d]:
            self.pt[d] = t
            self.pv[d] = a
        if t > a:
            if t - a > self.th[d]:
                sd = a + self.th[d]
                sd_end = sd + self.D[d]
                self.n_down[d] += 1
                self.sd_t[d] += min(sd_end, self.T) - sd
                self.sd_spans.append((d, sd, sd_end))
                if t >= sd_end:
                    self.sb_t[d] += t - sd_end
                    self.sb_spans.append((d, sd_end, t))
                    su = t
                else:
                    su = sd_end
                if su < self.T:
                    self.n_up[d] += 1
                    self.su_t[d] += min(su + self.U[d], self.T) - su
                    self.su_spans.append((d, su, su + self.U[d]))
                s = su + self.U[d]
            else:
                s = t
        else:
            s = a
        self.avail[d] = s + self.oh[d] + tr
        self.load[d] += self.oh[d] + tr
        return s

    def serve_batch(self, d: int, ts: list, trs: list) -> List[float]:
        out: List[float] = []
        append = out.append
        a = self.avail[d]
        oh = self.oh[d]
        ld = self.load[d]
        th = self.th[d]
        if isinf(th):
            for t, tr in zip(ts, trs):
                s = t if t > a else a
                append(s)
                a = s + oh + tr
                ld += oh + tr
        else:
            D = self.D[d]
            U = self.U[d]
            T = self.T
            sd_t = self.sd_t[d]
            su_t = self.su_t[d]
            sb_t = self.sb_t[d]
            n_up = self.n_up[d]
            n_down = self.n_down[d]
            sd_spans = self.sd_spans
            su_spans = self.su_spans
            sb_spans = self.sb_spans
            pt_d = self.pt[d]
            pv_d = self.pv[d]
            for t, tr in zip(ts, trs):
                if t != pt_d:
                    pt_d = t
                    pv_d = a
                if t > a:
                    if t - a > th:
                        sd = a + th
                        sd_end = sd + D
                        n_down += 1
                        sd_t += min(sd_end, T) - sd
                        sd_spans.append((d, sd, sd_end))
                        if t >= sd_end:
                            sb_t += t - sd_end
                            sb_spans.append((d, sd_end, t))
                            su = t
                        else:
                            su = sd_end
                        if su < T:
                            n_up += 1
                            su_t += min(su + U, T) - su
                            su_spans.append((d, su, su + U))
                        s = su + U
                    else:
                        s = t
                else:
                    s = a
                append(s)
                a = s + oh + tr
                ld += oh + tr
            self.sd_t[d] = sd_t
            self.su_t[d] = su_t
            self.sb_t[d] = sb_t
            self.n_up[d] = n_up
            self.n_down[d] = n_down
            self.pt[d] = pt_d
            self.pv[d] = pv_d
        self.avail[d] = a
        self.load[d] = ld
        return out

    def tail_arrays(self):
        # Log the trailing spin-down/standby episodes the vectorized base
        # pass is about to bill, then let it do the (unchanged) math.
        if not self.no_spindown:
            T = self.T
            for d, a in enumerate(self.avail):
                sd = a + self.th[d]
                if sd < T:
                    sd_end = sd + self.D[d]
                    self.sd_spans.append((d, sd, sd_end))
                    if sd_end < T:
                        self.sb_spans.append((d, sd_end, T))
        return super().tail_arrays()


class _LadderBank:
    """Multi-rung generalization of :class:`_DiskBank` for DPM ladders.

    Evolves exactly the state the event kernel's
    :class:`~repro.disk.multistate.MultiStateDiskDrive` evolves: per disk,
    the time it next falls idle plus per-rung park/descent/wake
    residencies.  An idle gap walks the ladder's (threshold-scaled)
    descent schedule: fully traversed rungs bill their descent and park
    times, the rung occupied when the gap ends bills a (possibly
    horizon-clipped) descent plus park-until-arrival, and the wake is
    billed at the rung's wake power for its configured wake time.  With
    the ``two_state`` ladder the recursion's arithmetic is term-for-term
    the classic :class:`_DiskBank` spin-down/spin-up recursion, so that
    ladder simulates byte-identically to the pre-ladder kernel (the
    regression tests in ``tests/sim/test_ladder_fastkernel.py`` assert
    bit-equal response times and energies).

    Heterogeneous fleets: ``ladder``/``spec``/``threshold`` accept
    per-disk sequences — every disk descends *its own* (threshold-scaled)
    schedule, and the residencies are kept disk-major (``park_t[d][i]``)
    because rung counts may differ across the pool.  Scalars tile across
    the pool, reproducing the historical uniform recursion bit-for-bit.
    """

    def __init__(
        self, num_disks: int, threshold, ladder, spec,
        horizon: float,
    ) -> None:
        specs = _per_disk_specs(spec, num_disks)
        ladders = _per_disk_ladders(ladder, num_disks)
        self.avail = [0.0] * num_disks
        self.load = [0.0] * num_disks
        # Instant-start avail snapshot (see _DiskBank.pt/pv): placements at
        # time t must not see disks woken by same-instant earlier serves.
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
        self.ladder = ladders[0]
        self.R = [len(l.rungs) for l in ladders]
        self.maxR = max(self.R)
        self.dn = [[r.down_time for r in l.rungs] for l in ladders]
        self.wk = [[r.wake_time for r in l.rungs] for l in ladders]
        # Per-disk per-rung residencies (disk-major: rung counts may
        # differ across a mixed fleet); rung 0's park time is computed as
        # the horizon residual (like the classic bank's idle time).
        self.park_t = [[0.0] * self.R[d] for d in range(num_disks)]
        self.down_t = [[0.0] * self.R[d] for d in range(num_disks)]
        self.wake_t = [[0.0] * self.R[d] for d in range(num_disks)]
        self.th = _per_disk_floats(threshold, num_disks)
        self.entries = [
            ladders[d].scaled_entries(self.th[d]) for d in range(num_disks)
        ]
        self.no_descend = [
            self.R[d] == 1 or isinf(self.entries[d][1])
            for d in range(num_disks)
        ]

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
        i = 1
        while i + 1 < R and g > entries[i + 1]:
            i += 1
        for j in range(1, i):
            # Rungs fully traversed before the arrival: full descent plus
            # park until the next rung's descent starts (all before t < T).
            ds = a + entries[j]
            de = ds + dn[j]
            down_t[j] += de - ds
            pe = a + entries[j + 1]
            if pe > de:
                park_t[j] += pe - de
        ds = a + entries[i]
        de = ds + dn[i]
        self.n_down[d] += i
        down_t[i] += min(de, T) - ds
        if t >= de:
            park_t[i] += t - de
            ws = t
        else:
            # Arrived mid-descent: the transition is not abortable.
            ws = de
        w = self.wk[d][i]
        if ws < T:
            self.n_up[d] += 1
            self.wake_t[d][i] += min(ws + w, T) - ws
        return ws + w

    def serve(self, d: int, t: float, tr: float) -> float:
        """Queue one request on disk ``d`` arriving at ``t``; returns the
        service start (the event kernel's seek entry time)."""
        a = self.avail[d]
        if t != self.pt[d]:
            self.pt[d] = t
            self.pv[d] = a
        if t > a:
            if self.no_descend[d] or t - a <= self.entries[d][1]:
                s = t
            else:
                s = self._descend(d, a, t, self.entries[d])
        else:
            s = a
        self.avail[d] = s + self.oh[d] + tr
        self.load[d] += self.oh[d] + tr
        return s

    def serve_batch(self, d: int, ts: list, trs: list) -> List[float]:
        """FIFO replay of one disk's run (the gap walk dominates only on
        sparse streams, where request counts are small anyway)."""
        serve = self.serve
        return [serve(d, t, tr) for t, tr in zip(ts, trs)]

    def spinning_mask(self, t: float) -> np.ndarray:
        """Per-disk "not parked in the deepest rung at ``t``" — descents,
        intermediate rungs and wakes all count as spinning, exactly like
        the classic bank's SPINDOWN-inclusive mask (and like it, computed
        from the instant-start snapshot so same-instant wakes stay
        invisible)."""
        pt = self.pt
        pv = self.pv
        out = np.empty(len(self.avail), dtype=bool)
        for d, a in enumerate(self.avail):
            if pt[d] == t:
                a = pv[d]
            if self.no_descend[d]:
                out[d] = True
            else:
                out[d] = t < (a + self.entries[d][-1]) + self.dn[d][-1]
        return out

    def _tail_one(self, d: int, a: float, entries) -> None:
        """Fold one disk's post-drain trailing idleness (descents started
        before the horizon, parks clipped at it) into the residencies."""
        T = self.T
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
            pe = (a + entries[i + 1]) if i + 1 < R else T
            if pe > T:
                pe = T
            if pe > de:
                park_t[i] += pe - de

    def apply_tail(self):
        """Trailing-idleness pass at the horizon; returns per-disk
        ``(spinups, spindowns)`` arrays."""
        for d, a in enumerate(self.avail):
            if not self.no_descend[d]:
                self._tail_one(d, a, self.entries[d])
        return (
            np.asarray(self.n_up, dtype=np.int64),
            np.asarray(self.n_down, dtype=np.int64),
        )


class _ControlledLadderBank(_LadderBank):
    """Per-interval, per-disk threshold variant of :class:`_LadderBank`.

    The controller's scalar per-disk threshold (resolved at each gap's
    drain instant from the applied-vector history, exactly like
    :class:`_ControlledBank`) scales the whole descent schedule via
    :meth:`~repro.disk.dpm.DpmLadder.scaled_entries` — so
    ``adaptive_timeout``/``slo_feedback`` steer ladder descent with the
    same telemetry contract as the two-state drives.  Also logs closed
    idle gaps for the telemetry feed and every park/descent/wake episode
    as ``(disk, start, end)`` spans for the per-interval power trace.
    """

    def __init__(
        self,
        num_disks: int,
        init_thresholds: np.ndarray,
        ladder,
        spec,
        horizon: float,
        interval: float,
    ) -> None:
        super().__init__(num_disks, 0.0, ladder, spec, horizon)
        self.entries = None  # per-gap schedules only; never a shared one
        self.no_descend = [False] * num_disks
        self.ci = float(interval)
        self._th_rows: List[List[float]] = [
            np.asarray(init_thresholds, dtype=float).tolist()
        ]
        self.k = 0
        # Per-disk scaled-entry caches (mixed fleets scale different
        # ladders with the same controller threshold).
        self._entry_cache: List[dict] = [{} for _ in range(num_disks)]
        self.gap_log: List[List[tuple]] = [[] for _ in range(num_disks)]
        # Span logs are rung-index keyed across the whole pool (entries
        # carry the disk id); maxR covers the deepest ladder in the mix.
        self.park_spans: List[List[tuple]] = [[] for _ in range(self.maxR)]
        self.down_spans: List[List[tuple]] = [[] for _ in range(self.maxR)]
        self.wake_spans: List[List[tuple]] = [[] for _ in range(self.maxR)]

    def push_thresholds(self, thresholds: np.ndarray) -> None:
        """Apply the vector decided at the boundary entering interval k+1."""
        self._th_rows.append(np.asarray(thresholds, dtype=float).tolist())
        self.k += 1

    def _th_at(self, drain: float, d: int) -> float:
        """Threshold governing a gap that began at ``drain`` on disk ``d``."""
        idx = int(drain / self.ci)
        if idx > self.k:
            idx = self.k
        return self._th_rows[idx][d]

    def _entries_for(self, d: int, th: float):
        cache = self._entry_cache[d]
        entries = cache.get(th)
        if entries is None:
            entries = self.ladders[d].scaled_entries(th)
            cache[th] = entries
        return entries

    def _descend_logged(self, d: int, a: float, t: float, entries) -> float:
        """:meth:`_LadderBank._descend` plus span logging for the trace."""
        g = t - a
        T = self.T
        dn = self.dn[d]
        R = self.R[d]
        down_t = self.down_t[d]
        park_t = self.park_t[d]
        i = 1
        while i + 1 < R and g > entries[i + 1]:
            i += 1
        for j in range(1, i):
            ds = a + entries[j]
            de = ds + dn[j]
            down_t[j] += de - ds
            self.down_spans[j].append((d, ds, de))
            pe = a + entries[j + 1]
            if pe > de:
                park_t[j] += pe - de
                self.park_spans[j].append((d, de, pe))
        ds = a + entries[i]
        de = ds + dn[i]
        self.n_down[d] += i
        down_t[i] += min(de, T) - ds
        self.down_spans[i].append((d, ds, de))
        if t >= de:
            park_t[i] += t - de
            self.park_spans[i].append((d, de, t))
            ws = t
        else:
            ws = de
        w = self.wk[d][i]
        if ws < T:
            self.n_up[d] += 1
            self.wake_t[d][i] += min(ws + w, T) - ws
            self.wake_spans[i].append((d, ws, ws + w))
        return ws + w

    def serve(self, d: int, t: float, tr: float) -> float:
        a = self.avail[d]
        if t != self.pt[d]:
            self.pt[d] = t
            self.pv[d] = a
        if t > a:
            th = self._th_at(a, d)
            self.gap_log[d].append((t - a, th))
            entries = self._entries_for(d, th)
            if self.R[d] == 1 or isinf(entries[1]) or t - a <= entries[1]:
                s = t
            else:
                s = self._descend_logged(d, a, t, entries)
        else:
            s = a
        self.avail[d] = s + self.oh[d] + tr
        self.load[d] += self.oh[d] + tr
        return s

    def serve_batch(self, d: int, ts: list, trs: list) -> List[float]:
        """:meth:`serve` over one disk's run, with the per-disk state held
        in locals (same arithmetic; gap walks go through
        :meth:`_descend_logged`)."""
        out: List[float] = []
        append = out.append
        log = self.gap_log[d].append
        a = self.avail[d]
        ld = self.load[d]
        pt_d = self.pt[d]
        pv_d = self.pv[d]
        oh = self.oh[d]
        one_rung = self.R[d] == 1
        for t, tr in zip(ts, trs):
            if t != pt_d:
                pt_d = t
                pv_d = a
            if t > a:
                th = self._th_at(a, d)
                log((t - a, th))
                entries = self._entries_for(d, th)
                if one_rung or isinf(entries[1]) or t - a <= entries[1]:
                    s = t
                else:
                    s = self._descend_logged(d, a, t, entries)
            else:
                s = a
            append(s)
            a = s + oh + tr
            ld += oh + tr
        self.avail[d] = a
        self.load[d] = ld
        self.pt[d] = pt_d
        self.pv[d] = pv_d
        return out

    def spinning_mask(self, t: float) -> np.ndarray:
        pt = self.pt
        pv = self.pv
        out = np.empty(len(self.avail), dtype=bool)
        for d, a in enumerate(self.avail):
            if pt[d] == t:
                a = pv[d]
            if self.R[d] == 1:
                out[d] = True
                continue
            entries = self._entries_for(d, self._th_at(a, d))
            # inf threshold => a + inf == inf => always spinning.
            out[d] = t < (a + entries[-1]) + self.dn[d][-1]
        return out

    def _tail_one(self, d: int, a: float, entries) -> None:
        """Trailing idleness with span logging (parks clipped at T)."""
        T = self.T
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
            self.down_spans[i].append((d, ds, de))
            pe = (a + entries[i + 1]) if i + 1 < R else T
            if pe > T:
                pe = T
            if pe > de:
                park_t[i] += pe - de
                self.park_spans[i].append((d, de, pe))

    def apply_tail(self):
        for d, a in enumerate(self.avail):
            self._tail_one(d, a, self._entries_for(d, self._th_at(a, d)))
        return (
            np.asarray(self.n_up, dtype=np.int64),
            np.asarray(self.n_down, dtype=np.int64),
        )


class _ObservedLadderBank(_LadderBank):
    """:class:`_LadderBank` plus rung-transition span logging for observers.

    The controlled ladder bank's logged walk is term-for-term the base
    recursion plus span appends, and the base class dispatches its gap
    walks through ``self._descend`` / ``self._tail_one`` — so rebinding
    those to the logged variants (plus allocating the span logs) is the
    whole override.  Selected once at run start when a fixed-threshold
    ladder run carries an enabled observer.
    """

    _descend = _ControlledLadderBank._descend_logged
    _tail_one = _ControlledLadderBank._tail_one

    def __init__(
        self, num_disks: int, threshold, ladder, spec, horizon: float
    ) -> None:
        super().__init__(num_disks, threshold, ladder, spec, horizon)
        self.park_spans: List[List[tuple]] = [[] for _ in range(self.maxR)]
        self.down_spans: List[List[tuple]] = [[] for _ in range(self.maxR)]
        self.wake_spans: List[List[tuple]] = [[] for _ in range(self.maxR)]


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
        load=np.asarray(bank.load, dtype=float),
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
    """Replay one read-only segment: stable per-disk grouping + batch FIFO.

    ``d_seg`` must be fully resolved (no ``-1``; callers validate); times
    are globally non-decreasing, so a stable sort on the disk index
    preserves each disk's arrival order.  ``starts_out`` (a view onto the
    segment's slice of the global starts array) is filled in place.
    """
    n = int(d_seg.size)
    if not n:
        return
    order = np.argsort(d_seg, kind="stable")
    d_s = d_seg[order]
    t_s = t_seg[order]
    tr_s = tr_seg[order]
    cuts = np.flatnonzero(np.diff(d_s)) + 1
    group_lo = np.concatenate(([0], cuts))
    group_hi = np.concatenate((cuts, [n]))
    seg_starts = np.empty(n, dtype=float)
    for lo, hi in zip(group_lo.tolist(), group_hi.tolist()):
        seg_starts[lo:hi] = bank.serve_batch(
            int(d_s[lo]), t_s[lo:hi].tolist(), tr_s[lo:hi].tolist()
        )
    starts_out[order] = seg_starts


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
    heap: Optional[list] = None,
    base_index: int = 0,
    flush: bool = True,
    map_l: Optional[list] = None,
    size_l: Optional[list] = None,
    obs=None,
    obs_clock: Optional[list] = None,
) -> None:
    """Globally time-merged pass for shared-cache runs (writes optional).

    Reads look the cache up at arrival and, on a miss, schedule an
    admission at their completion time; a min-heap drains those admissions
    in completion order between arrivals, reproducing the event kernel's
    interleaving (hit short-circuit, admit-on-miss-completion).  Ties
    (admission exactly at an arrival instant) admit first; admissions at or
    after the horizon never happen, exactly like the event kernel's URGENT
    stop pre-empting completion events at ``T``.

    The controlled path calls this once per control interval on a slice of
    the stream: ``heap`` carries pending admissions across the calls,
    ``base_index`` keeps the heap's tie-break sequence global,
    ``flush=False`` defers the final drain until the last slice, and
    ``map_l``/``size_l`` reuse one list materialization of the (large)
    per-file arrays across all slices (``map_l`` is kept in sync with
    ``mapping`` on every allocation, so sharing it is safe).
    """
    if heap is None:
        heap = []
    if obs is not None and obs_clock is None:
        obs_clock = [0.0]
    if map_l is None:
        map_l = mapping.tolist()
    if size_l is None:
        size_l = sizes.tolist()
    lookup = cache.lookup
    admit = cache.admit
    serve = bank.serve
    oh_l = bank.oh
    rate_l = bank.rate
    T = bank.T
    fid_l = fid.tolist()
    t_l = t_all.tolist()
    w_l = is_write.tolist() if is_write is not None else None
    for i in range(len(t_l)):
        t = t_l[i]
        f = fid_l[i]
        while heap and heap[0][0] <= t:
            c_adm, _, hf, hs = heappop(heap)
            if obs is not None:
                obs_clock[0] = c_adm
                obs.on_cache_event(c_adm, "admit", hf)
            admit(hf, hs)
        if w_l is not None and w_l[i]:
            d = map_l[f]
            if d < 0:
                size = size_l[f]
                d = _allocate_for_write(bank, policy, free, size, t)
                if obs is not None:
                    obs.on_placement(t, f, d)
                map_l[f] = d
                mapping[f] = d
                free[d] -= size
            starts[i] = serve(d, t, size_l[f] / rate_l[d])
            d_req[i] = d
        else:
            size = size_l[f]
            if lookup(f, size):
                if obs is not None:
                    obs.on_cache_event(t, "hit", f)
                starts[i] = t  # a hit "completes" at its arrival instant
                d_req[i] = -1
                continue
            if obs is not None:
                obs.on_cache_event(t, "miss", f)
            d = map_l[f]
            if d < 0:
                raise SimulationError(
                    f"read of unallocated file {f}; allocate it first"
                )
            tr = size / rate_l[d]
            s = serve(d, t, tr)
            starts[i] = s
            d_req[i] = d
            c = s + oh_l[d] + tr
            if c < T:
                heappush(heap, (c, base_index + i, f, size))
    if flush:
        while heap and heap[0][0] < T:
            c_adm, _, hf, hs = heappop(heap)
            if obs is not None:
                obs_clock[0] = c_adm
                obs.on_cache_event(c_adm, "admit", hf)
            admit(hf, hs)

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
        "bank", "dpm", "policy", "mapping", "free", "sizes", "cache",
        "hit_lat", "heap", "map_l", "size_l", "T", "ci", "oh_a", "rate_a",
        "pend_c", "pend_seq", "pend_r", "wait_s", "wait_d",
        "n_seen", "k", "t_start", "finished", "obs", "obs_clock",
    )

    def __init__(
        self,
        bank,
        dpm,
        policy: WritePlacementPolicy,
        mapping: np.ndarray,
        free: np.ndarray,
        sizes: np.ndarray,
        cache,
        cache_hit_latency: float,
        heap: Optional[list],
        map_l: Optional[list],
        size_l: Optional[list],
        obs=None,
        obs_clock: Optional[list] = None,
    ) -> None:
        self.bank = bank
        self.dpm = dpm
        self.policy = policy
        self.mapping = mapping
        self.free = free
        self.sizes = sizes
        self.cache = cache
        self.hit_lat = float(cache_hit_latency)
        self.heap = heap if heap is not None else []
        self.map_l = map_l
        self.size_l = size_l
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
        self.obs_clock = obs_clock

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
        bank = self.bank
        sl = slice(lo, hi)
        if self.cache is not None:
            _serve_coupled(
                bank, self.policy, self.mapping, self.free, self.sizes,
                fid[sl], t_all[sl],
                None if is_write is None else is_write[sl],
                self.cache, starts[sl], d_req[sl],
                heap=self.heap, base_index=self.n_seen + lo, flush=False,
                map_l=self.map_l, size_l=self.size_l,
                obs=self.obs, obs_clock=self.obs_clock,
            )
        elif is_write is not None:
            _serve_segmented(
                bank, self.policy, self.mapping, self.free, self.sizes,
                fid[sl], t_all[sl], sz_all[sl], is_write[sl],
                starts[sl], d_req[sl], obs=self.obs,
            )
        else:
            d_seg = self.mapping[fid[sl]]
            bad = np.flatnonzero(d_seg < 0)
            if bad.size:
                raise SimulationError(
                    f"read of unallocated file {int(fid[lo + bad[0]])}; "
                    "allocate it first"
                )
            _serve_segment(
                bank, d_seg, t_all[sl], sz_all[sl] / self.rate_a[d_seg],
                starts[sl],
            )
            d_req[sl] = d_seg
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
    ) -> None:
        """Serve one chunk of live (pre-censored, time-sorted) arrivals."""
        n = int(t_all.size)
        lo = 0
        while lo < n:
            t_end = min((self.k + 1) * self.ci, self.T)
            hi = int(np.searchsorted(t_all, t_end, side="left"))
            if hi > lo:
                self._serve_slice(
                    fid, t_all, sz_all, is_write, starts, d_req, lo, hi
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


def _flush_bank_spans(
    binner: Optional[_SpanBinner], bank, is_ladder: bool, obs=None
) -> None:
    """Drain a bank's logged transition spans and clear them in place
    (the serve loops hold bound references): fold them into the binner
    (controlled runs), emit them to an observer (clipped at the horizon,
    like every accounting path), or both.  Called between chunks and once
    at the end of the run, so span-log memory stays bounded by the chunk
    size and observer emission order is deterministic for any chunking.
    """
    T = bank.T
    if is_ladder:
        for i in range(1, bank.maxR):
            for prefix, spans in (
                ("park", bank.park_spans[i]),
                ("down", bank.down_spans[i]),
                ("wake", bank.wake_spans[i]),
            ):
                if binner is not None:
                    binner.add_entries((prefix, i), spans)
                if obs is not None:
                    for d, s, e in spans:
                        if s >= T:
                            continue
                        name = bank.ladders[d].rungs[i].name
                        if prefix != "park":
                            name = f"{prefix}:{name}"
                        obs.on_state_span(int(d), name, s, e if e < T else T)
                spans.clear()
    else:
        for key, name, spans in (
            ("sd", "spindown", bank.sd_spans),
            ("su", "spinup", bank.su_spans),
            ("sb", "standby", bank.sb_spans),
        ):
            if binner is not None:
                binner.add_entries(key, spans)
            if obs is not None:
                for d, s, e in spans:
                    if s < T:
                        obs.on_state_span(int(d), name, s, e if e < T else T)
            spans.clear()


def _power_from_binner(binner: _SpanBinner, specs) -> np.ndarray:
    """Per-interval per-disk mean power from the binned state overlaps.

    The event engine diffs live drive energies at each boundary; this
    reconstructs the same physical quantity from the run's state spans
    (seek/active per request, logged spin transitions, idle as the window
    residual), so the two traces agree to float-accumulation noise.
    State powers are per-disk row vectors — on a mixed fleet every disk
    column is weighted by its own spec's draw.
    """
    models = [PowerModel(s) for s in specs]

    def p(state):
        return np.array([m.power(state) for m in models], dtype=float)

    windows = np.diff(binner.edges)
    seek = binner.get("seek")
    active = binner.get("active")
    spindown = binner.get("sd")
    spinup = binner.get("su")
    standby = binner.get("sb")
    idle = np.clip(
        windows[:, None] - (seek + active + spindown + spinup + standby),
        0.0,
        None,
    )
    energy = (
        p(DiskState.SEEK)[None, :] * seek
        + p(DiskState.ACTIVE)[None, :] * active
        + p(DiskState.SPINDOWN)[None, :] * spindown
        + p(DiskState.SPINUP)[None, :] * spinup
        + p(DiskState.STANDBY)[None, :] * standby
        + p(DiskState.IDLE)[None, :] * idle
    )
    return energy / windows[:, None]


def _ladder_power_from_binner(
    binner: _SpanBinner, ladders, specs
) -> np.ndarray:
    """Ladder analogue of :func:`_power_from_binner`: park/descent/wake
    overlaps per rung, rung-0 park as the window residual.  Rung powers
    are per-disk row vectors (each disk bills its own ladder); a disk
    whose ladder is shallower than rung ``i`` has zero overlap in that
    column, so its placeholder power never contributes.
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
        park = binner.get(("park", i))
        down = binner.get(("down", i))
        wake = binner.get(("wake", i))
        occupied = occupied + park + down + wake
        energy = (
            energy
            + rung_p(i, "power")[None, :] * park
            + rung_p(i, "down_power")[None, :] * down
            + rung_p(i, "wake_power")[None, :] * wake
        )
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
    :class:`~repro.disk.dpm.DpmLadder`: the run replays through the
    per-rung :class:`_LadderBank` recursion (or
    :class:`_ControlledLadderBank` under a dynamic policy, with
    ``threshold``/the controller vector scaling the descent schedule),
    and ``state_durations`` is keyed by the ladder's timeline labels
    instead of :class:`DiskState`.  ``metrics_mode="streaming"`` skips the
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
    has_ladder = ladders is not None
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
    # simulated time — the serve loops keep ``obs_clock`` at the current
    # admission/arrival instant so the evict hook can timestamp them.
    obs_clock: Optional[list] = None
    if obs is not None and cache is not None:
        obs_clock = [0.0]
        cache.evict_hook = lambda f: obs.on_cache_event(
            obs_clock[0], "evict", f
        )

    driver: Optional[_ControlledDriver] = None
    binner: Optional[_SpanBinner] = None
    if dpm is not None:
        if dpm.num_disks != num_disks:
            raise ConfigError(
                f"controller sized for {dpm.num_disks} disks but the pool "
                f"has {num_disks}"
            )
        if has_ladder:
            bank = _ControlledLadderBank(
                num_disks, dpm.thresholds, ladders, specs, T, dpm.interval
            )
        else:
            bank = _ControlledBank(
                num_disks, dpm.thresholds, specs, T, dpm.interval
            )
        driver = _ControlledDriver(
            bank, dpm, policy, mapping, free, sizes, cache,
            cache_hit_latency, heap, map_l, size_l,
            obs=obs, obs_clock=obs_clock,
        )
        binner = _SpanBinner(_interval_edges(dpm.interval, T), num_disks)
    elif has_ladder:
        bank = (
            _ObservedLadderBank(num_disks, th_in, ladders, specs, T)
            if obs is not None
            else _LadderBank(num_disks, th_in, ladders, specs, T)
        )
    else:
        bank = (
            _ObservedDiskBank(num_disks, th_in, specs, T)
            if obs is not None
            else _DiskBank(num_disks, th_in, specs, T)
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
    acc = ResponseAccumulator() if streaming else None
    resp_c_parts: List[np.ndarray] = []
    resp_v_parts: List[np.ndarray] = []
    hit_t_parts: List[np.ndarray] = []
    hit_v_parts: List[np.ndarray] = []

    # -- slack-aware request scheduling (repro.system.scheduling) --------------
    # Arrivals are assigned release times by the scheduler's deterministic
    # forecast (in arrival order, reading the controller's interval-constant
    # slo_estimate under control) and submitted to the disks in global
    # (release, arrival-seq) order — the exact submission sequence the event
    # engine's drive_scheduled_stream produces.  Pending releases ride
    # across interval and chunk boundaries as (release, arrival, file id,
    # is-write) array blocks in arrival-seq order; recorded responses
    # measure from the original arrival (the hold rides on top of the
    # post-release response).  scheduler=None takes the historical
    # unscheduled paths, byte-identical to the pre-scheduler kernel.
    pending: List[tuple] = []
    if scheduler is not None:

        def _schedule(fid_a, t_a, w_a, lo, hi, est) -> None:
            """Assign releases to arrivals [lo, hi) (one open interval)."""
            rel = scheduler.release
            t_c = t_a[lo:hi]
            f_c = fid_a[lo:hi]
            if w_a is None:
                w_c = np.zeros(hi - lo, dtype=bool)
                kinds = [READ] * (hi - lo)
            else:
                w_c = w_a[lo:hi]
                kinds = [WRITE if w else READ for w in w_c.tolist()]
            r_c = np.array([
                rel(t, f, k, slo_estimate=est)
                for t, f, k in zip(t_c.tolist(), f_c.tolist(), kinds)
            ], dtype=float)
            # A release at or past the horizon never submits (the event
            # engine's URGENT stop pre-empts it) — censored, neither an
            # arrival nor a completion.
            keep = r_c < T
            if keep.any():
                pending.append((r_c[keep], t_c[keep], f_c[keep], w_c[keep]))

        def _consume(fid_c, t_c, sz_c, w_c, holds_c) -> None:
            """Serve one (release, seq)-ordered batch of released requests
            through whichever path applies and fold it into the persistent
            accumulators — the scheduled analogue of the per-chunk body."""
            nonlocal arrivals, hits, req_count
            n_c = int(t_c.size)
            starts_c = np.empty(n_c, dtype=float)
            d_req_c = np.empty(n_c, dtype=np.int64)
            if driver is not None:
                driver._serve_slice(
                    fid_c, t_c, sz_c, w_c, starts_c, d_req_c, 0, n_c,
                    holds=holds_c,
                )
                driver.n_seen += n_c
            elif cache is not None:
                _serve_coupled(
                    bank, policy, mapping, free, sizes, fid_c, t_c, w_c,
                    cache, starts_c, d_req_c, heap=heap, base_index=arrivals,
                    flush=False, map_l=map_l, size_l=size_l,
                    obs=obs, obs_clock=obs_clock,
                )
            elif w_c is not None:
                _serve_segmented(
                    bank, policy, mapping, free, sizes, fid_c, t_c, sz_c,
                    w_c, starts_c, d_req_c, obs=obs,
                )
            else:
                disk_c = mapping[fid_c]
                if n_c and int(disk_c.min()) < 0:
                    bad_f = int(fid_c[int(np.argmin(disk_c))])
                    raise SimulationError(
                        f"read of unallocated file {bad_f}; allocate it first"
                    )
                _serve_segment(
                    bank, disk_c, t_c, sz_c / bank.rate_a[disk_c], starts_c
                )
                d_req_c = disk_c
            served_c = d_req_c >= 0
            n_hits = n_c - int(served_c.sum())
            if n_hits:
                d_s = d_req_c[served_c]
                s_s = starts_c[served_c]
                sz_s = sz_c[served_c]
                t_s = t_c[served_c]
                h_s = holds_c[served_c]
            else:
                d_s, s_s, sz_s, t_s, h_s = (
                    d_req_c, starts_c, sz_c, t_c, holds_c
                )
            oh_s = bank.oh_a[d_s]
            tr_s = sz_s / bank.rate_a[d_s]
            np.add.at(seek_time, d_s, np.clip(T - s_s, 0.0, oh_s))
            np.add.at(active_time, d_s, np.clip(T - (s_s + oh_s), 0.0, tr_s))
            req_count += np.bincount(d_s, minlength=num_disks)
            if binner is not None:
                binner.add("seek", d_s, s_s, s_s + oh_s)
                binner.add("active", d_s, s_s + oh_s, s_s + oh_s + tr_s)
            completion = s_s + oh_s + tr_s
            done = completion < T
            if streaming:
                vals = np.empty(n_c, dtype=float)
                ok = np.ones(n_c, dtype=bool)
                vals[served_c] = (completion - t_s) + h_s
                ok[served_c] = done
                if n_hits:
                    vals[~served_c] = (
                        float(cache_hit_latency) + holds_c[~served_c]
                    )
                acc.add(vals[ok])
            else:
                resp_c_parts.append(completion[done])
                resp_v_parts.append((completion[done] - t_s[done]) + h_s[done])
                if n_hits:
                    hit_t_parts.append(t_c[~served_c])
                    hit_v_parts.append(
                        float(cache_hit_latency) + holds_c[~served_c]
                    )
            arrivals += n_c
            hits += n_hits

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
            _consume(
                fid_c, t_c, sizes[fid_c], w_c if w_c.any() else None,
                t_c - t_p[idx],
            )

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
        if scheduler is not None:
            if arrivals and (driver is not None or obs is not None):
                # Bounded memory for the banks' span logs, exactly like the
                # unscheduled per-chunk folds below.
                _flush_bank_spans(
                    binner if driver is not None else None,
                    bank, has_ladder, obs,
                )
            if driver is not None:
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
                        _schedule(
                            fid, t_all, is_write, pos, hi, dpm.slo_estimate
                        )
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
            # Releases at or before the chunk's last arrival are final:
            # every future arrival (hence every future release) is at or
            # after it, and at a tie the smaller arrival seq flushes first
            # either way — so the global submission order is invariant to
            # the chunk partition.
            _flush(float(t_all[-1]), True)
            if censored:
                break
            continue

        sz_all = sizes[fid]
        starts = np.empty(n, dtype=float)
        d_req = np.empty(n, dtype=np.int64)

        if arrivals and driver is None and obs is not None:
            # Bounded memory for the observed banks' span logs on the
            # fixed-threshold paths (the controlled path folds below;
            # emission order is chunking-invariant either way because
            # spans are only ever appended in simulation order).
            _flush_bank_spans(None, bank, has_ladder, obs)
        if driver is not None:
            if arrivals:
                # Bounded memory: fold the spans logged so far before the
                # next chunk grows the logs.  A single-chunk run never gets
                # here and takes the one-shot fold at the end, staying
                # bit-exact with the historical monolithic binning.
                _flush_bank_spans(binner, bank, has_ladder, obs)
            driver.feed(fid, t_all, sz_all, is_write, starts, d_req)
        elif cache is not None:
            _serve_coupled(
                bank, policy, mapping, free, sizes, fid, t_all,
                is_write, cache, starts, d_req,
                heap=heap, base_index=arrivals, flush=False,
                map_l=map_l, size_l=size_l,
                obs=obs, obs_clock=obs_clock,
            )
        elif is_write is not None:
            _serve_segmented(
                bank, policy, mapping, free, sizes, fid, t_all, sz_all,
                is_write, starts, d_req, obs=obs,
            )
        else:
            disk = mapping[fid]
            if n and int(disk.min()) < 0:
                bad_f = int(fid[int(np.argmin(disk))])
                raise SimulationError(
                    f"read of unallocated file {bad_f}; allocate it first"
                )
            _serve_segment(
                bank, disk, t_all, sz_all / bank.rate_a[disk], starts
            )
            d_req = disk

        # -- per-chunk accounting into the persistent accumulators ------------
        served = d_req >= 0
        n_hits = n - int(served.sum())
        if n_hits:
            d_s = d_req[served]
            s_s = starts[served]
            sz_s = sz_all[served]
            t_s = t_all[served]
        else:
            d_s, s_s, sz_s, t_s = d_req, starts, sz_all, t_all
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
        if streaming:
            # Feed responses in arrival order (served completions where
            # they complete before T, hits at the hit latency) — the same
            # per-chunk formula for every partition, so the accumulator's
            # serial reductions are partition-invariant.
            vals = np.empty(n, dtype=float)
            ok = np.ones(n, dtype=bool)
            vals[served] = completion - t_s
            ok[served] = done
            if n_hits:
                vals[~served] = float(cache_hit_latency)
            acc.add(vals[ok])
        else:
            resp_c_parts.append(completion[done])
            resp_v_parts.append(completion[done] - t_s[done])
            if n_hits:
                hit_t_parts.append(t_all[~served])
        arrivals += n
        hits += n_hits
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
        while heap and heap[0][0] < T:
            c_adm, _, hf, hs = heappop(heap)
            if obs is not None:
                obs_clock[0] = c_adm
                obs.on_cache_event(c_adm, "admit", hf)
            admit(hf, hs)
        if obs is not None:
            cache.evict_hook = None

    # -- vectorized accounting over the banked state ---------------------------

    # Spin accounting with trailing idleness applied (a disk whose
    # post-drain gap outlasts its threshold spins down — or descends the
    # ladder — before the horizon).
    if has_ladder:
        spinups, spindowns = bank.apply_tail()
    else:
        spindown_time, spinup_time, standby_time, spinups, spindowns = (
            bank.tail_arrays()
        )
    if binner is not None or obs is not None:
        # Remaining spans, including the trailing-idleness episodes the
        # tail pass just logged.
        _flush_bank_spans(binner, bank, has_ladder, obs)

    if not has_ladder:
        idle_time = np.clip(
            T
            - (
                seek_time
                + active_time
                + spindown_time
                + spinup_time
                + standby_time
            ),
            0.0,
            None,
        )

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
            hit_times = np.concatenate(hit_t_parts)
            resp_completion = np.concatenate((resp_completion, hit_times))
            hit_values = (
                np.concatenate(hit_v_parts)
                if scheduler is not None
                else np.full(hits, float(cache_hit_latency))
            )
            resp_values = np.concatenate((resp_values, hit_values))
        # Report response times in completion order, like the dispatcher
        # does (stable at ties: served completions before cache hits).
        response_times = resp_values[
            np.argsort(resp_completion, kind="stable")
        ]
        completions = int(response_times.size)

    if has_ladder:
        # Ladder runs are keyed by timeline label; the accumulation order
        # (rung 0, parks, seek, active, wakes, descents) makes the
        # two_state ladder's float arithmetic term-for-term identical to
        # the classic DiskState path below.  Disks are grouped by their
        # (ladder, spec) pair and each group replays the historical
        # rung-major arithmetic on its own sub-vectors: a uniform pool is
        # a single group — term-for-term identical to the old scalar
        # constants — while a mixed pool prices every drive against its
        # own ladder depth and power table.
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
    else:
        per_state = {
            DiskState.IDLE: idle_time,
            DiskState.STANDBY: standby_time,
            DiskState.SEEK: seek_time,
            DiskState.ACTIVE: active_time,
            DiskState.SPINUP: spinup_time,
            DiskState.SPINDOWN: spindown_time,
        }
        state_power = {
            state: np.array(
                [PowerModel(s).power(state) for s in specs], dtype=float
            )
            for state in per_state
        }
        energy_per_disk = np.zeros(num_disks, dtype=float)
        for state, per_disk in per_state.items():
            energy_per_disk += state_power[state] * per_disk
    state_durations = {
        state: float(per_disk.sum())
        for state, per_disk in per_state.items()
        if per_disk.any()
    }

    extra = {}
    if dpm is not None:
        if has_ladder:
            dpm.attach_power(
                _ladder_power_from_binner(binner, bank.ladders, specs)
            )
        else:
            dpm.attach_power(_power_from_binner(binner, specs))
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
