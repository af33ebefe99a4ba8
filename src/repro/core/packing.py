"""``Pack_Disks`` — the paper's O(n log n) 2DVPP approximation (Algorithm 3).

Sketch of the algorithm
-----------------------
Items are split into the *size-intensive* set ``ST(F)`` (``s_i >= l_i``) and
the *load-intensive* set ``LD(F)`` (``l_i > s_i``), kept in two max-heaps
keyed by the excess ``~s_i = s_i - l_i`` and ``~l_i = l_i - s_i``.  Disks are
packed one at a time; the next item always comes from the heap *opposite* to
the dimension currently dominating the open disk, driving both dimensions up
together.  If the popped item would overflow, the most recently added item of
the opposite kind is evicted back to its heap (an O(1) operation thanks to
the two per-disk stacks ``s-list``/``l-list``), the popped item is inserted,
and — by the paper's Lemmas 3/4 — the disk is then *complete* (both
dimensions within ``[1 - rho, 1]``) and is closed.  Whatever remains when one
heap empties is packed next-fit style on the surviving dimension
(``Pack_Remaining_S``/``Pack_Remaining_L``); Lemma 6 shows every closed disk
is then at least s-complete or l-complete, which yields Theorem 1's bound

.. math:: C_{PD} \\le \\frac{C^*}{1 - \\rho} + 1 .

The cost improvement over Chang-Hwang-Park (2005) is exactly the O(1)
eviction: their algorithm searches the open disk for an evictable element
(O(n) per overflow, O(n^2) total), see
:func:`repro.core.reference.pack_disks_quadratic`.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

from repro.core.allocation import Allocation, PackedDisk
from repro.core.heap import MaxHeap
from repro.core.item import EPS, PackItem, rho_of
from repro.errors import PackingError

__all__ = ["pack_disks", "split_intensive"]


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
