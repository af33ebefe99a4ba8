"""O(n^2) reference implementation of the 2DVPP heuristic.

This mirrors the algorithm of Chang, Hwang & Park (2005) — the best
previously known bound — the way the paper describes it: identical packing
policy, but *without* the heap + two-stack data structures.  The candidate
item with the largest excess is found by a linear scan over an unsorted
list, and the element evicted on overflow is located by scanning the open
disk's contents.  Both scans are O(n), giving O(n^2) overall, versus
O(n log n) for :func:`repro.core.packing.pack_disks`.

The eviction choice matches ``Pack_Disks`` exactly (the most recently added
element of the opposite kind), so for any input the two implementations
produce **bit-identical allocations** — which the test suite asserts.  Only
the data-structure cost differs, which is precisely the paper's claimed
improvement and what ``benchmarks/bench_packing_complexity.py`` measures.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.allocation import Allocation, PackedDisk
from repro.core.item import EPS, ItemArray, PackItem
from repro.core.packing import _check_items, split_intensive

__all__ = ["pack_disks_quadratic"]


class _ScanList:
    """An unsorted pool supporting extract-max by O(n) scan.

    Entries are ``(key, seq, item)``; ties broken FIFO like the heap, so
    extraction order is identical to ``Pack_Disks``' heaps.
    """

    def __init__(self, entries) -> None:
        self._entries: List[Tuple[float, int, PackItem]] = []
        self._seq = 0
        for key, item in entries:
            self.push(key, item)

    def push(self, key: float, item: PackItem) -> None:
        self._entries.append((float(key), self._seq, item))
        self._seq += 1

    def pop_max(self) -> Tuple[float, PackItem]:
        if not self._entries:
            raise IndexError("pop from empty list")
        best = 0
        best_key = (self._entries[0][0], -self._entries[0][1])
        for i in range(1, len(self._entries)):
            key = (self._entries[i][0], -self._entries[i][1])
            if key > best_key:
                best = i
                best_key = key
        entry = self._entries.pop(best)
        return entry[0], entry[2]

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class _FlatDisk:
    """Open disk kept as one flat list; eviction requires an O(n) scan."""

    __slots__ = ("entries", "s_sum", "l_sum")

    def __init__(self) -> None:
        # entries: (item, is_size_origin, insertion_seq)
        self.entries: List[Tuple[PackItem, bool, int]] = []
        self.s_sum = 0.0
        self.l_sum = 0.0

    def add(self, item: PackItem, size_origin: bool, seq: int) -> None:
        self.entries.append((item, size_origin, seq))
        self.s_sum += item.size
        self.l_sum += item.load

    def evict_latest(self, size_origin: bool) -> Optional[PackItem]:
        """Remove and return the most recently added item of the given kind.

        Scans the whole disk (the O(n) step that Pack_Disks avoids).
        """
        best = -1
        best_seq = -1
        for i, (_, origin, seq) in enumerate(self.entries):
            if origin == size_origin and seq > best_seq:
                best = i
                best_seq = seq
        if best < 0:
            return None
        item, _, _ = self.entries.pop(best)
        self.s_sum -= item.size
        self.l_sum -= item.load
        return item

    def is_complete(self, rho: float) -> bool:
        threshold = 1.0 - rho - EPS
        return self.s_sum >= threshold and self.l_sum >= threshold

    def items(self) -> List[PackItem]:
        return [item for item, _, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def pack_disks_quadratic(
    items: Sequence[PackItem],
    rho: Optional[float] = None,
) -> Allocation:
    """Reference O(n^2) packing; same output as :func:`pack_disks`.

    See the module docstring for why this exists.  Prefer
    :func:`repro.core.packing.pack_disks` in production code.
    """
    items = list(items)
    rho = _check_items(ItemArray.of(items), rho)
    if not items:
        return Allocation(disks=[], algorithm="pack_disks_quadratic", rho=rho)

    st, ld = split_intensive(items)
    s_pool = _ScanList((item.size - item.load, item) for item in st)
    l_pool = _ScanList((item.load - item.size, item) for item in ld)

    disks: List[PackedDisk] = []
    disk = _FlatDisk()
    seq = 0

    # To keep output bit-identical with pack_disks, disks must list their
    # s-origin items before l-origin items (pack_disks stores two stacks and
    # concatenates s_list + l_list on close).
    def items_in_slist_order(d: _FlatDisk) -> List[PackItem]:
        s_items = [it for it, origin, _ in d.entries if origin]
        l_items = [it for it, origin, _ in d.entries if not origin]
        return s_items + l_items

    def close_disk() -> None:
        nonlocal disk
        disks.append(
            PackedDisk(index=len(disks), items=items_in_slist_order(disk))
        )
        disk = _FlatDisk()

    while (disk.s_sum >= disk.l_sum and l_pool) or (
        disk.s_sum < disk.l_sum and s_pool
    ):
        if disk.s_sum >= disk.l_sum:
            _, item = l_pool.pop_max()
            if disk.s_sum + item.size > 1 + EPS:
                evicted = disk.evict_latest(size_origin=True)
                if evicted is None:
                    l_pool.push(item.load - item.size, item)
                    close_disk()
                    continue
                s_pool.push(evicted.size - evicted.load, evicted)
                disk.add(item, size_origin=False, seq=seq)
            else:
                disk.add(item, size_origin=False, seq=seq)
        else:
            _, item = s_pool.pop_max()
            if disk.l_sum + item.load > 1 + EPS:
                evicted = disk.evict_latest(size_origin=False)
                if evicted is None:
                    s_pool.push(item.size - item.load, item)
                    close_disk()
                    continue
                l_pool.push(evicted.load - evicted.size, evicted)
                disk.add(item, size_origin=True, seq=seq)
            else:
                disk.add(item, size_origin=True, seq=seq)
        seq += 1
        if disk.is_complete(rho):
            close_disk()

    while s_pool:
        _, item = s_pool.pop_max()
        if disk.s_sum + item.size > 1 + EPS:
            close_disk()
        disk.add(item, size_origin=True, seq=seq)
        seq += 1
    while l_pool:
        _, item = l_pool.pop_max()
        if disk.l_sum + item.load > 1 + EPS:
            close_disk()
        disk.add(item, size_origin=False, seq=seq)
        seq += 1

    if len(disk):
        close_disk()

    return Allocation(disks=disks, algorithm="pack_disks_quadratic", rho=rho)
