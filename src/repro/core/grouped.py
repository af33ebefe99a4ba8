"""``Pack_Disks_v`` — the round-robin group variant (paper §3.2).

``Pack_Disks`` tends to place many files of similar size (adjacent in heap
order) on the same disk.  When a user requests a *batch* of similar-size
files at once — a pattern observed in the NERSC logs — all requests of the
batch queue on one disk and response time collapses.  The variant packs a
*group* of ``v`` disks concurrently, cycling between them round-robin, so
that similar-size files are spread over ``v`` disks and a batch fans out.

The paper reports ``v = 4`` as the sweet spot: larger groups no longer help
response time but dilute the load concentration that powers the energy
saving (§5.1).  ``pack_disks_grouped(items, v=1)`` reduces exactly to
``Pack_Disks``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.allocation import Allocation, PackedDisk
from repro.core.heap import MaxHeap
from repro.core.item import EPS, PackItem
from repro.core.packing import _OpenDisk, _check_items, split_intensive
from repro.errors import PackingError

__all__ = ["pack_disks_grouped"]


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
