"""The file dispatcher: routes requests to disks via the mapping table.

Mirrors the paper's simulation environment: "Once a request is generated,
the file dispatcher forwards it to the corresponding disk based on the
file-to-disk mapping table, which is built using Pack_Disks".  Mapping time
is ignored (negligible next to multi-second file transfers).

Reads go through the (optional) shared cache; writes of not-yet-mapped
files are placed by the configured
:class:`~repro.system.placement.WritePlacementPolicy`.  The default is the
paper's §1.1 energy-friendly rule: prefer an already-spinning disk with
space (best-fit — the tightest remaining space, concentrating new data on
the already-loaded disks), otherwise fall back to *worst-fit* — the disk
with the most free space — so one unlucky spin-up absorbs as many future
writes as possible.  Either way the mapping table is updated so later
reads find the file.  The fast kernel evaluates the same rule-table row,
so placement decisions are byte-identical across engines.
"""

from __future__ import annotations

import heapq
import math
from functools import partial
from typing import List, Optional, Union

import numpy as np

from repro.cache.base import BaseCache
from repro.disk.array import DiskArray
from repro.disk.drive import READ, WRITE
from repro.errors import CapacityError, SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Timeout
from repro.system.placement import (
    PlacementContext,
    WritePlacementPolicy,
    make_placement_policy,
)

__all__ = [
    "Dispatcher",
    "drive_scheduled_stream",
    "drive_stream",
    "initial_free_bytes",
    "per_disk_capacities",
    "validate_free_bytes",
]

#: Relative overpack slack tolerated at construction: the packers place
#: files against a normalized capacity with a 1e-9 feasibility epsilon
#: (:data:`repro.core.item.EPS`), so a valid allocation can exceed the
#: byte budget by a few hundred bytes on a 500 GB disk.  Anything beyond
#: this fraction of the usable capacity is a genuine overpack.
_OVERPACK_TOL = 1e-6


def per_disk_capacities(
    usable_capacity: Union[float, np.ndarray], num_disks: int
) -> np.ndarray:
    """Normalize a scalar-or-vector capacity budget to one value per disk.

    Uniform pools pass the classic scalar; heterogeneous fleets pass the
    per-disk vector from ``StorageConfig.usable_capacities``.
    """
    capacity = np.asarray(usable_capacity, dtype=float)
    if capacity.ndim == 0:
        return np.full(num_disks, float(capacity), dtype=float)
    if capacity.shape != (num_disks,):
        raise SimulationError(
            f"usable_capacity must be scalar or one value per disk, got "
            f"shape {capacity.shape} for {num_disks} disks"
        )
    return capacity.astype(float, copy=True)


def initial_free_bytes(
    mapping: np.ndarray,
    sizes: np.ndarray,
    usable_capacity: Union[float, np.ndarray],
    num_disks: int,
) -> np.ndarray:
    """Free space per disk under ``mapping`` (shared by both engines).

    Both the event-kernel dispatcher and the fast kernel derive the §1.1
    write policy's free-space view through this one helper so their
    byte-for-byte allocation decisions cannot drift apart.
    ``usable_capacity`` is a scalar (uniform pool) or a per-disk vector
    (heterogeneous fleet).
    """
    free = per_disk_capacities(usable_capacity, num_disks)
    allocated = mapping >= 0
    if allocated.any():
        free -= np.bincount(
            mapping[allocated], weights=sizes[allocated], minlength=num_disks
        )
    return free


def validate_free_bytes(
    free: np.ndarray, usable_capacity: Union[float, np.ndarray]
) -> None:
    """Raise :class:`~repro.errors.CapacityError` when an initial mapping
    materially overpacks a disk (beyond the packers' epsilon slack).

    The error names the offending disk and *its own* capacity — on a
    heterogeneous fleet a 500 GB drive must not be judged against its
    1 TB neighbor's budget.
    """
    if not free.size:
        return
    capacity = per_disk_capacities(usable_capacity, int(free.size))
    excess = -free - _OVERPACK_TOL * capacity
    worst = int(np.argmax(excess))
    if excess[worst] > 0:
        raise CapacityError(
            f"initial mapping overpacks disk {worst}: "
            f"{capacity[worst] - free[worst]:.0f} bytes mapped but only "
            f"{capacity[worst]:.0f} usable on that disk"
        )


class Dispatcher:
    """Routes file requests to drives and records per-request outcomes.

    Parameters
    ----------
    env, array:
        The environment and disk pool.
    mapping:
        Dense ``file_id -> disk index`` array (``-1`` = unallocated; reads
        of unallocated files raise, writes allocate).
    sizes:
        ``file_id -> bytes`` array (shared with the catalog).
    cache:
        Optional shared whole-file cache (lookup on read, admit on miss
        completion).
    cache_hit_latency:
        Response time recorded for a cache hit.
    usable_capacity:
        Byte budget used by the write-allocation policy: a scalar
        (uniform pool) or a per-disk vector (heterogeneous fleet).
        Defaults to each drive's own spec capacity.
    write_policy:
        Placement strategy for not-yet-mapped written files: a registry
        name or a ready :class:`~repro.system.placement.WritePlacementPolicy`
        instance (``None`` = the paper's §1.1 ``spinning_best_fit``).
    """

    def __init__(
        self,
        env: Environment,
        array: DiskArray,
        mapping: np.ndarray,
        sizes: np.ndarray,
        cache: Optional[BaseCache] = None,
        cache_hit_latency: float = 0.0,
        usable_capacity: Union[None, float, np.ndarray] = None,
        write_policy: Union[None, str, WritePlacementPolicy] = None,
    ) -> None:
        self.env = env
        self.array = array
        self.mapping = np.asarray(mapping, dtype=np.int64).copy()
        self.sizes = np.asarray(sizes, dtype=float)
        if self.mapping.shape != self.sizes.shape:
            raise SimulationError("mapping and sizes must align per file id")
        if self.mapping.size and self.mapping.max() >= len(array):
            raise SimulationError(
                f"mapping references disk {self.mapping.max()} but the "
                f"array has only {len(array)} disks"
            )
        self.cache = cache
        self.cache_hit_latency = float(cache_hit_latency)
        if usable_capacity is None:
            usable_capacity = (
                array.spec.capacity
                if array.homogeneous_specs
                else array.capacities
            )
        self.usable_capacity = (
            float(usable_capacity)
            if np.ndim(usable_capacity) == 0
            else np.asarray(usable_capacity, dtype=float)
        )
        self._capacities = per_disk_capacities(
            self.usable_capacity, len(array)
        )
        # Free space per disk under the current mapping (writes consume it).
        # A mapping that materially overpacks a disk is rejected up front
        # rather than letting free_bytes go silently negative and corrupt
        # every later write-allocation decision.
        self.free_bytes = initial_free_bytes(
            self.mapping, self.sizes, self.usable_capacity, len(array)
        )
        validate_free_bytes(self.free_bytes, self.usable_capacity)
        self.write_policy = make_placement_policy(write_policy)
        self.write_policy.reset(len(array))
        # Cumulative dispatched service seconds per disk (cache hits
        # excluded), accumulated one request at a time so the fast kernel's
        # identical accumulation yields bit-equal values — placement
        # policies comparing load (coldest_disk) then decide identically
        # in both engines.
        self.dispatched_seconds = np.zeros(len(array), dtype=float)
        self._access_overhead = array.access_overheads
        self._transfer_rate = array.transfer_rates
        self._active_power = array.active_power
        #: Response time of every completed request, in completion order.
        self.response_times: List[float] = []
        #: Parallel list: True when the request was served from cache.
        self.served_from_cache: List[bool] = []
        self.arrivals = 0
        self.write_count = 0
        #: Optional :class:`~repro.obs.hooks.RunObserver` (installed by
        #: ``StorageSystem.run`` for instrumented runs): receives cache
        #: hit/miss/admit events and placement choices at ``env.now``.
        self.observer = None

    # -- read path ------------------------------------------------------------

    def submit(
        self, file_id: int, kind: str = READ, response_offset: float = 0.0
    ) -> None:
        """Dispatch one request (fire-and-forget; outcome recorded on completion).

        ``response_offset`` is added to the recorded response time — the
        release-queue scheduler passes the hold it imposed (release minus
        original arrival) so a deferred request's response still measures
        from arrival.  The zero default leaves recorded values untouched
        (not even a ``+ 0.0`` float round-trip), keeping unscheduled runs
        byte-identical.
        """
        self.arrivals += 1
        if kind == WRITE:
            self._submit_write(file_id, response_offset)
            return
        size = self.sizes[file_id]
        if self.cache is not None:
            if self.cache.lookup(file_id, size):
                if self.observer is not None:
                    self.observer.on_cache_event(self.env.now, "hit", file_id)
                value = self.cache_hit_latency
                if response_offset:
                    value += response_offset
                self.response_times.append(value)
                self.served_from_cache.append(True)
                return
            if self.observer is not None:
                self.observer.on_cache_event(self.env.now, "miss", file_id)
        disk = int(self.mapping[file_id])
        if disk < 0:
            raise SimulationError(
                f"read of unallocated file {file_id}; allocate it first"
            )
        self._track_dispatch(disk, size)
        request = self.array.disks[disk].submit(file_id, size, READ)
        request.done.callbacks.append(
            partial(self._complete, file_id=file_id, size=size,
                    offset=response_offset)
        )

    def _track_dispatch(self, disk: int, size: float) -> None:
        """Accumulate one request's service seconds for placement policies.

        Same formula and same per-request order as the fast kernel's
        :class:`~repro.sim.fastkernel._DiskBank` load tracking, so policy
        views are bit-identical across engines.
        """
        self.dispatched_seconds[disk] += (
            self._access_overhead[disk] + size / self._transfer_rate[disk]
        )

    def _complete(
        self, event, file_id: int, size: float, offset: float = 0.0
    ) -> None:
        value = event.value
        if offset:
            value += offset
        self.response_times.append(value)
        self.served_from_cache.append(False)
        if self.cache is not None:
            if self.observer is not None:
                self.observer.on_cache_event(self.env.now, "admit", file_id)
            self.cache.admit(file_id, size)

    # -- write path (pluggable placement; §1.1 by default) ----------------------

    def _submit_write(self, file_id: int, response_offset: float = 0.0) -> None:
        size = self.sizes[file_id]
        disk = int(self.mapping[file_id])
        if disk < 0:
            disk = int(self._allocate_for_write(size))
            if self.observer is not None:
                self.observer.on_placement(self.env.now, file_id, disk)
            self.mapping[file_id] = disk
            self.free_bytes[disk] -= size
        self.write_count += 1
        self._track_dispatch(disk, size)
        request = self.array.disks[disk].submit(file_id, size, WRITE)
        request.done.callbacks.append(
            partial(self._complete_write, offset=response_offset)
        )

    def _complete_write(self, event, offset: float = 0.0) -> None:
        value = event.value
        if offset:
            value += offset
        self.response_times.append(value)
        self.served_from_cache.append(False)

    def _allocate_for_write(self, size: float) -> int:
        """Pick a disk for a new file via the configured placement policy.

        The decision lives in the policy object (for a registered policy,
        its row of the rule table the fast kernel also evaluates); this
        method only assembles the
        :class:`~repro.system.placement.PlacementContext` from the live
        drives' spin states and the dispatch ledger.
        """
        spinning = np.fromiter(
            (d.spinning for d in self.array.disks),
            dtype=bool,
            count=len(self.array),
        )
        ctx = PlacementContext(
            time=self.env.now,
            spinning=spinning,
            free=self.free_bytes,
            load=self.dispatched_seconds,
            capacity=self._capacities,
            active_power=self._active_power,
        )
        return self.write_policy.choose(ctx, size)

    # -- accessors ---------------------------------------------------------------

    def responses_array(self) -> np.ndarray:
        """Completed-request response times as an array."""
        return np.asarray(self.response_times, dtype=float)

    @property
    def completions(self) -> int:
        return len(self.response_times)


def drive_stream(env: Environment, dispatcher: Dispatcher, stream) -> "object":
    """Generator process replaying a request stream through the dispatcher.

    ``stream`` is any iterable of ``(time, file_id)`` or
    ``(time, file_id, kind)`` with non-decreasing times (e.g.
    :class:`~repro.workload.arrivals.RequestStream` or
    :class:`~repro.workload.mixed.MixedRequestStream`).

    A decreasing timestamp raises :class:`~repro.errors.SimulationError`
    instead of being silently coalesced to ``env.now`` — replaying an
    out-of-order trace at the wrong instants would skew every queueing
    metric downstream.  The comparison is against the stream's own previous
    timestamp (not the accumulated clock), so equal arrival times are fine.
    """
    last = -math.inf
    for item in stream:
        t, file_id, *rest = item
        if not t >= last:  # out of order, or NaN
            _bad_stream_time(t, last)
        last = t
        delay = t - env.now
        if delay > 0:
            yield Timeout(env, delay)
        dispatcher.submit(file_id, kind=rest[0] if rest else READ)


def _bad_stream_time(t: float, last: float) -> None:
    if t != t:
        raise SimulationError("request stream time is NaN")
    raise SimulationError(
        f"request stream times must be non-decreasing: got {t} after {last}"
    )


def drive_scheduled_stream(
    env: Environment,
    dispatcher: Dispatcher,
    stream,
    scheduler,
    controller=None,
) -> "object":
    """The release-queue process: arrivals -> scheduler -> ``submit``.

    Sits between the stream replay and the dispatcher when a non-fifo
    :class:`~repro.system.scheduling.RequestScheduler` is configured.
    Each arrival is assigned a release time at its arrival instant (the
    scheduler sees the controller's telemetry *as of the last control
    boundary*, because boundaries are simulation events that have already
    fired by then); released requests are submitted at their release
    times in stable ``(release_time, arrival_sequence)`` order — at a
    release/arrival time tie the release goes first, matching the fast
    kernel's sorted flush.  The hold (release minus arrival) rides along
    as ``response_offset`` so recorded response times measure from the
    original arrival.

    Requests whose release lands at or past the measurement horizon
    simply never fire (the ``env.run(until=...)`` cutoff pre-empts
    them), mirroring the fast kernel's release-time censoring.

    A release landing *exactly* on a control boundary (not measure-zero:
    ``batch_release`` windows can divide the control interval) is
    submitted after that boundary fires — the fast kernel feeds releases
    strictly below each boundary before processing it — by requeueing
    once via a zero timeout, which the environment's stable same-instant
    ordering places behind the already-scheduled boundary event.
    """
    interval = None if controller is None else float(controller.interval)
    pending: list = []  # heap of (release, seq, file_id, kind, hold)
    seq = 0
    last = -math.inf
    it = iter(stream)
    item = next(it, None)
    while item is not None or pending:
        t_arrival = item[0] if item is not None else math.inf
        if pending and pending[0][0] <= t_arrival:
            release, _, file_id, kind, hold = heapq.heappop(pending)
            delay = release - env.now
            if delay > 0:
                yield Timeout(env, delay)
                if interval is not None:
                    k = round(release / interval)
                    if k >= 1 and k * interval == release:
                        yield Timeout(env, 0)  # boundary first, then submit
            dispatcher.submit(file_id, kind=kind, response_offset=hold)
            continue
        t, file_id, *rest = item
        if not t >= last:  # out of order, or NaN
            _bad_stream_time(t, last)
        last = t
        delay = t - env.now
        if delay > 0:
            yield Timeout(env, delay)
        kind = rest[0] if rest else READ
        estimate = None if controller is None else controller.slo_estimate
        release = scheduler.release(t, file_id, kind, slo_estimate=estimate)
        if not release >= t:  # NaN too
            raise SimulationError(
                f"request scheduler released a request arriving at {t} at "
                f"{release}; a release must be at or after its arrival"
            )
        heapq.heappush(pending, (release, seq, file_id, kind, release - t))
        seq += 1
        item = next(it, None)
