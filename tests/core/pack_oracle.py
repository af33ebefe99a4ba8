"""Heap-based ``Pack_Disks`` and ``Pack_Disks_v``, kept as test oracles.

These are the allocators as first written: two keyed max-heaps on
:mod:`heapq` (``~S`` and ``~L``, FIFO on equal keys) and an open disk
held as the paper's two stacks ``s-list``/``l-list``.  The packers of
:mod:`repro.core.packing` and :mod:`repro.core.grouped`, which run in the
compiled core (``repro_pack``), must reproduce them exactly: the same
disks, the same mapping, the same placement order on every disk.  The per-item random baseline sits here
for the same reason.  Kept out of ``src/`` on purpose: a test oracle,
not a second implementation.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Generic, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.allocation import Allocation, PackedDisk
from repro.core.item import EPS, PackItem, rho_of
from repro.errors import CapacityError, PackingError
from repro.sim.rng import rng_from_seed

T = TypeVar("T")


class MaxHeap(Generic[T]):
    """Binary max-heap of ``(key, payload)`` entries.

    ``pop`` returns the entry with the largest key; equal keys come out in
    insertion order (FIFO).
    """

    __slots__ = ("_entries", "_seq")

    def __init__(self, entries: Optional[Iterable[Tuple[float, T]]] = None) -> None:
        # Internal entries are (-key, seq, payload) on heapq's min-heap: the
        # largest key sorts first, and among equal keys the smallest (oldest)
        # seq.  Sequence numbers are unique, so payloads are never compared.
        pairs = () if entries is None else entries
        self._entries: List[Tuple[float, int, T]] = [
            (-float(key), seq, payload)
            for seq, (key, payload) in enumerate(pairs)
        ]
        self._seq = len(self._entries)
        heapify(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(self, key: float, payload: T) -> None:
        """Insert an entry in O(log n)."""
        heappush(self._entries, (-float(key), self._seq, payload))
        self._seq += 1

    def peek(self) -> Tuple[float, T]:
        """Return (but keep) the max-key entry; ``IndexError`` when empty."""
        neg_key, _, payload = self._entries[0]
        return -neg_key, payload

    def pop(self) -> Tuple[float, T]:
        """Remove and return the max-key entry in O(log n); ``IndexError``
        when empty."""
        neg_key, _, payload = heappop(self._entries)
        return -neg_key, payload

    # -- test support ----------------------------------------------------------

    def check_invariant(self) -> None:
        """Assert that no entry pops before its parent (tests only)."""
        entries = self._entries
        for i in range(1, len(entries)):
            assert entries[(i - 1) >> 1][:2] <= entries[i][:2], (
                f"heap violated at index {i}"
            )

    def as_sorted_list(self) -> List[Tuple[float, T]]:
        """The entries in pop order, leaving the heap as is (tests only)."""
        ordered = sorted(self._entries)
        return [(-neg_key, payload) for neg_key, _, payload in ordered]


def split_intensive(items: Iterable[PackItem]) -> tuple:
    """Partition items into (size_intensive, load_intensive) lists.

    Size-intensive: ``s_i >= l_i`` (the paper's ``ST(F)``); load-intensive:
    ``l_i > s_i`` (``LD(F)``).
    """
    st: List[PackItem] = []
    ld: List[PackItem] = []
    for item in items:
        (st if item.size >= item.load else ld).append(item)
    return st, ld


def _check_items(items: Sequence[PackItem], rho: Optional[float]) -> float:
    """Validate item coordinates and ``rho``; return the ``rho`` to use.

    Coordinates must lie in ``[0, 1]`` (NaN fails every comparison, so it
    is rejected too).  ``rho`` defaults to the tight value ``rho_of(items)``
    and must be finite and no smaller than it.
    """
    for item in items:
        if not (0.0 <= item.size <= 1 + EPS and 0.0 <= item.load <= 1 + EPS):
            raise PackingError(
                f"item {item.index} needs finite coordinates in [0, 1] "
                f"(s={item.size:.4f}, l={item.load:.4f})"
            )
    tight_rho = rho_of(items)
    if rho is None:
        return tight_rho
    if not math.isfinite(rho):
        raise PackingError(f"rho must be finite, got {rho}")
    if rho < tight_rho - EPS:
        raise PackingError(
            f"rho={rho} is below the largest item coordinate {tight_rho:.6f}"
        )
    return rho


class _OpenDisk:
    """Mutable state of the disk currently being packed.

    Keeps the two stacks the paper calls ``s-list[i]`` and ``l-list[i]``;
    the element to evict on overflow is the top of the opposite stack, an
    O(1) lookup (the key improvement over the O(n) search in [3]).
    """

    __slots__ = ("s_list", "l_list", "s_sum", "l_sum")

    def __init__(self) -> None:
        self.s_list: List[PackItem] = []
        self.l_list: List[PackItem] = []
        self.s_sum = 0.0
        self.l_sum = 0.0

    def add_s(self, item: PackItem) -> None:
        self.s_list.append(item)
        self.s_sum += item.size
        self.l_sum += item.load

    def add_l(self, item: PackItem) -> None:
        self.l_list.append(item)
        self.s_sum += item.size
        self.l_sum += item.load

    def pop_s(self) -> PackItem:
        item = self.s_list.pop()
        self.s_sum -= item.size
        self.l_sum -= item.load
        return item

    def pop_l(self) -> PackItem:
        item = self.l_list.pop()
        self.s_sum -= item.size
        self.l_sum -= item.load
        return item

    def is_complete(self, rho: float) -> bool:
        threshold = 1.0 - rho - EPS
        return self.s_sum >= threshold and self.l_sum >= threshold

    def items(self) -> List[PackItem]:
        return self.s_list + self.l_list

    def __len__(self) -> int:
        return len(self.s_list) + len(self.l_list)


def pack_disks(
    items: Sequence[PackItem],
    rho: Optional[float] = None,
) -> Allocation:
    """Pack normalized items onto the minimum-ish number of disks.

    Parameters
    ----------
    items:
        Normalized :class:`~repro.core.item.PackItem` elements (build them
        with :func:`~repro.core.item.make_items`).
    rho:
        The bound on item coordinates used for the completeness test.
        Defaults to the tight value ``max_i max(s_i, l_i)``.  A larger
        ``rho`` closes disks earlier (fewer eviction events, looser packing);
        the Theorem 1 guarantee holds for any valid ``rho``.

    Returns
    -------
    Allocation
        Feasible on both dimensions; disk count within
        ``C*/(1 - rho) + 1`` of the optimum ``C*``.

    Raises
    ------
    PackingError
        If an item coordinate is NaN or outside ``[0, 1]``, or ``rho`` is
        not finite or is smaller than some item coordinate.
    """
    items = list(items)
    rho = _check_items(items, rho)
    if not items:
        return Allocation(disks=[], algorithm="pack_disks", rho=rho)

    st, ld = split_intensive(items)
    s_heap: MaxHeap[PackItem] = MaxHeap(
        (item.size - item.load, item) for item in st
    )
    l_heap: MaxHeap[PackItem] = MaxHeap(
        (item.load - item.size, item) for item in ld
    )

    disks: List[PackedDisk] = []
    disk = _OpenDisk()

    def close_disk() -> None:
        nonlocal disk
        disks.append(PackedDisk(index=len(disks), items=disk.items()))
        disk = _OpenDisk()

    # -- main loop (Algorithm 3 lines 4-21) -----------------------------------
    while (disk.s_sum >= disk.l_sum and l_heap) or (
        disk.s_sum < disk.l_sum and s_heap
    ):
        if disk.s_sum >= disk.l_sum:
            # Storage currently dominates: take a load-intensive element.
            _, item = l_heap.pop()
            if disk.s_sum + item.size > 1 + EPS:
                # Overflow: evict the most recent size-intensive element
                # (Lemma 1 guarantees it exists and its excess covers the
                # imbalance), then the disk becomes complete (Lemma 3).
                if not disk.s_list:
                    # Theoretically unreachable (Lemma 1); guard against
                    # degenerate float corner cases without crashing.
                    l_heap.push(item.load - item.size, item)
                    close_disk()
                    continue
                evicted = disk.pop_s()
                s_heap.push(evicted.size - evicted.load, evicted)
                disk.add_l(item)
            else:
                disk.add_l(item)
        else:
            # Load currently dominates: take a size-intensive element.
            _, item = s_heap.pop()
            if disk.l_sum + item.load > 1 + EPS:
                if not disk.l_list:
                    s_heap.push(item.size - item.load, item)
                    close_disk()
                    continue
                evicted = disk.pop_l()
                l_heap.push(evicted.load - evicted.size, evicted)
                disk.add_s(item)
            else:
                disk.add_s(item)
        if disk.is_complete(rho):
            close_disk()

    # -- Pack_Remaining_S / Pack_Remaining_L (lines 22-23) ---------------------
    # At most one heap is non-empty here (Lemma 5).  Remaining size-intensive
    # items only need the storage check (their load is <= their size), and
    # symmetrically for load-intensive items.
    while s_heap:
        _, item = s_heap.pop()
        if disk.s_sum + item.size > 1 + EPS:
            close_disk()
        disk.add_s(item)
    while l_heap:
        _, item = l_heap.pop()
        if disk.l_sum + item.load > 1 + EPS:
            close_disk()
        disk.add_l(item)

    if len(disk):
        close_disk()

    allocation = Allocation(disks=disks, algorithm="pack_disks", rho=rho)
    return allocation


def pack_disks_grouped(
    items: Sequence[PackItem],
    v: int = 4,
    rho: Optional[float] = None,
) -> Allocation:
    """Pack items onto disks in round-robin groups of ``v``.

    Parameters
    ----------
    items:
        Normalized :class:`~repro.core.item.PackItem` elements.
    v:
        Group size (``v = 1`` is plain ``Pack_Disks``).
    rho:
        Coordinate bound for the completeness test; defaults to the tight
        per-input value.

    Returns
    -------
    Allocation
        Feasible on both dimensions.  The Theorem 1 disk-count bound is
        only proven for ``v = 1``; for ``v > 1`` the count can exceed it by
        up to ``v - 1`` partially filled disks per group boundary.
    """
    if v < 1:
        raise PackingError(f"group size v must be >= 1, got {v}")
    items = list(items)
    rho = _check_items(items, rho)
    name = f"pack_disks_v{v}"
    if not items:
        return Allocation(disks=[], algorithm=name, rho=rho)

    st, ld = split_intensive(items)
    s_heap: MaxHeap[PackItem] = MaxHeap(
        (item.size - item.load, item) for item in st
    )
    l_heap: MaxHeap[PackItem] = MaxHeap(
        (item.load - item.size, item) for item in ld
    )

    closed: List[PackedDisk] = []
    group: List[Optional[_OpenDisk]] = [_OpenDisk() for _ in range(v)]
    cursor = 0

    def close(slot: int) -> None:
        disk = group[slot]
        assert disk is not None
        closed.append(PackedDisk(index=len(closed), items=disk.items()))
        group[slot] = None

    def fresh_group() -> None:
        nonlocal cursor
        for slot in range(v):
            if group[slot] is not None and len(group[slot]):
                close(slot)
            group[slot] = _OpenDisk()
        cursor = 0

    def advance() -> None:
        nonlocal cursor
        cursor = (cursor + 1) % v

    # -- main phase: one Pack_Disks insertion step per open disk, RR order ----
    while s_heap or l_heap:
        progressed = False
        for _ in range(v):
            disk = group[cursor]
            if disk is None:
                advance()
                continue
            wants_load = disk.s_sum >= disk.l_sum
            if wants_load and l_heap:
                _, item = l_heap.pop()
                if disk.s_sum + item.size > 1 + EPS:
                    if not disk.s_list:
                        l_heap.push(item.load - item.size, item)
                        close(cursor)
                        advance()
                        progressed = True
                        break
                    evicted = disk.pop_s()
                    s_heap.push(evicted.size - evicted.load, evicted)
                    disk.add_l(item)
                else:
                    disk.add_l(item)
            elif not wants_load and s_heap:
                _, item = s_heap.pop()
                if disk.l_sum + item.load > 1 + EPS:
                    if not disk.l_list:
                        s_heap.push(item.size - item.load, item)
                        close(cursor)
                        advance()
                        progressed = True
                        break
                    evicted = disk.pop_l()
                    l_heap.push(evicted.load - evicted.size, evicted)
                    disk.add_s(item)
                else:
                    disk.add_s(item)
            else:
                # This disk's preferred heap is empty: it cannot proceed in
                # the main phase; try the next disk in the group.
                advance()
                continue
            if disk.is_complete(rho):
                close(cursor)
            advance()
            progressed = True
            break
        if not progressed:
            # No open disk can take a main-phase step (one heap is empty and
            # every open disk is dominated toward it): fall through to the
            # remaining phase.
            break
        if all(d is None for d in group):
            fresh_group()

    # -- remaining phase: spread leftover single-kind items round-robin -------
    def place_remaining(heap: MaxHeap, size_kind: bool) -> None:
        nonlocal cursor
        while heap:
            _, item = heap.pop()
            placed = False
            for _ in range(v):
                disk = group[cursor]
                if disk is not None:
                    fits = (
                        disk.s_sum + item.size <= 1 + EPS
                        if size_kind
                        else disk.l_sum + item.load <= 1 + EPS
                    )
                    if fits:
                        (disk.add_s if size_kind else disk.add_l)(item)
                        advance()
                        placed = True
                        break
                advance()
            if not placed:
                fresh_group()
                disk = group[cursor]
                (disk.add_s if size_kind else disk.add_l)(item)
                advance()

    place_remaining(s_heap, size_kind=True)
    place_remaining(l_heap, size_kind=False)

    for slot in range(v):
        if group[slot] is not None and len(group[slot]):
            close(slot)

    return Allocation(disks=closed, algorithm=name, rho=rho)


def random_allocation(
    items: Sequence[PackItem],
    num_disks: int,
    rng=None,
    respect_capacity: bool = True,
) -> Allocation:
    """Uniform random placement, one ``rng.integers`` draw per item."""
    if num_disks < 1:
        raise PackingError(f"num_disks must be >= 1, got {num_disks}")
    rng = rng_from_seed(rng)
    bins: List[List[PackItem]] = [[] for _ in range(num_disks)]
    sizes = np.zeros(num_disks)
    for item in items:
        disk = int(rng.integers(num_disks))
        if respect_capacity and sizes[disk] + item.size > 1 + EPS:
            feasible = np.flatnonzero(sizes + item.size <= 1 + EPS)
            if feasible.size == 0:
                raise CapacityError(
                    f"file {item.index} (s={item.size:.4f}) fits on none of "
                    f"the {num_disks} disks"
                )
            disk = int(feasible[rng.integers(feasible.size)])
        bins[disk].append(item)
        sizes[disk] += item.size
    disks = [PackedDisk(index=i, items=b) for i, b in enumerate(bins)]
    return Allocation(disks=disks, algorithm=f"random_{num_disks}")
