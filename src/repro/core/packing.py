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

Lemma 7 on arrays
-----------------
Each heap is a :class:`_Heap`: one stable ``argsort`` puts the initial
items in pop order (largest key first, equal keys in input order, the
heap's FIFO tie-break) in O(n log n), and items pushed back after an
eviction go to a ``heapq`` side heap at O(log n) per push or pop.  A pop
takes the side heap's top only when its key is strictly larger than the
sorted run's head, so the pop order is exactly that of one max-heap with
FIFO ties.  Every item is popped once plus once per eviction, and by
Lemma 3 each eviction completes a disk, so the whole pack stays
O(n log n).  An open disk
is two lists of item positions plus two float sums, updated in the same
order as the paper's stacks.  ``Pack_Disks`` runs as the one-disk case of
the engine behind ``Pack_Disks_v`` (:mod:`repro.core.grouped`).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.item import EPS, ItemArray, PackItem
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


def _check_items(items: ItemArray, rho: Optional[float]) -> float:
    """Validate item coordinates and ``rho``; return the ``rho`` to use.

    Coordinates must lie in ``[0, 1]`` (NaN fails every comparison, so it
    is rejected too); the first offending item is reported.  ``rho``
    defaults to the tight value ``max_i max(s_i, l_i)`` and must be finite
    and no smaller than it.
    """
    s, l = items.size, items.load
    ok = (s >= 0.0) & (s <= 1 + EPS) & (l >= 0.0) & (l <= 1 + EPS)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise PackingError(
            f"item {int(items.index[bad])} needs finite coordinates in [0, 1] "
            f"(s={float(s[bad]):.4f}, l={float(l[bad]):.4f})"
        )
    tight_rho = max(float(s.max()), float(l.max()), 0.0) if len(s) else 0.0
    if rho is None:
        return tight_rho
    if not math.isfinite(rho):
        raise PackingError(f"rho must be finite, got {rho}")
    if rho < tight_rho - EPS:
        raise PackingError(
            f"rho={rho} is below the largest item coordinate {tight_rho:.6f}"
        )
    return rho


class _Heap:
    """One of the paper's two max-heaps: a sorted run plus a side heap.

    Built from the initial items' positions ``pos`` and negated keys
    ``neg``: ``run`` holds the positions in pop order, ``neg`` their keys
    and ``head`` the next unpopped entry.  Pushed items go to ``side`` as
    ``(-key, seq, pos)``, where ``seq`` follows every initial item, so on
    equal keys the run pops first.
    """

    __slots__ = ("run", "neg", "head", "side", "seq")

    def __init__(self, pos: np.ndarray, neg: np.ndarray) -> None:
        rank = np.argsort(neg, kind="stable")
        self.run: List[int] = pos[rank].tolist()
        self.neg: List[float] = neg[rank].tolist()
        self.head = 0
        self.side: List[Tuple[float, int, int]] = []
        self.seq = len(self.run)

    def __len__(self) -> int:
        return len(self.run) - self.head + len(self.side)

    def pop(self) -> int:
        """Position of the max-key item; FIFO on equal keys."""
        side = self.side
        head = self.head
        if side and (head == len(self.run) or side[0][0] < self.neg[head]):
            return heappop(side)[2]
        self.head = head + 1
        return self.run[head]

    def push(self, pos: int, neg_key: float) -> None:
        heappush(self.side, (neg_key, self.seq, pos))
        self.seq += 1

    def drain(self) -> Iterator[int]:
        """Pop every remaining position, in pop order."""
        while self.side:
            yield self.pop()
        yield from self.run[self.head:]


def _heaps(items: ItemArray) -> Tuple[_Heap, _Heap, List[float]]:
    """The ``~S`` and ``~L`` heaps over ``items``, and ``s_i - l_i`` per item.

    An ST item's key is ``s_i - l_i``; an LD item's is ``l_i - s_i``,
    whose negation is ``s_i - l_i`` exactly in IEEE arithmetic.
    """
    diff = items.size - items.load
    st = np.flatnonzero(items.size >= items.load)
    ld = np.flatnonzero(items.size < items.load)
    return _Heap(st, -diff[st]), _Heap(ld, diff[ld]), diff.tolist()


def pack_disks(
    items: Sequence[PackItem],
    rho: Optional[float] = None,
) -> Allocation:
    """Pack normalized items onto the minimum-ish number of disks.

    Parameters
    ----------
    items:
        Normalized :class:`~repro.core.item.PackItem` elements (build them
        with :func:`~repro.core.item.make_items`), or an
        :class:`~repro.core.item.ItemArray`.
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
    return _pack_groups(items, 1, rho, "pack_disks")


def _pack_groups(
    items: Sequence[PackItem], v: int, rho: Optional[float], name: str
) -> Allocation:
    """Pack ``items`` with ``v`` disks open at once, stepping them
    round-robin (``Pack_Disks_v``; ``v = 1`` is ``Pack_Disks``)."""
    arr = ItemArray.of(items)
    rho = _check_items(arr, rho)
    s_heap, l_heap, diff = _heaps(arr)
    size = arr.size.tolist()
    load = arr.load.tolist()
    cap = 1 + EPS
    full = 1.0 - rho - EPS

    order: List[int] = []
    offsets = [0]
    # Open disk ``k`` of the group: its two stacks (None once closed) and
    # its two sums.
    s_lists: List[Optional[List[int]]] = [[] for _ in range(v)]
    l_lists: List[Optional[List[int]]] = [[] for _ in range(v)]
    s_sums = [0.0] * v
    l_sums = [0.0] * v
    cursor = 0
    n_open = v

    def close(slot: int) -> None:
        nonlocal n_open
        order.extend(s_lists[slot])
        order.extend(l_lists[slot])
        offsets.append(len(order))
        s_lists[slot] = l_lists[slot] = None
        n_open -= 1

    def fresh_group() -> None:
        """Close every non-empty open disk; open ``v`` empty ones."""
        nonlocal cursor, n_open
        for slot in range(v):
            if s_lists[slot] is not None and (s_lists[slot] or l_lists[slot]):
                close(slot)
            s_lists[slot], l_lists[slot] = [], []
            s_sums[slot] = l_sums[slot] = 0.0
        cursor = 0
        n_open = v

    # -- main loop (Algorithm 3 lines 4-21), one step per open disk in turn ---
    while True:
        # The next open disk whose wanted heap is non-empty; none left ends
        # the main phase.
        for _ in range(v):
            s_list = s_lists[cursor]
            if s_list is not None:
                s_sum = s_sums[cursor]
                l_sum = l_sums[cursor]
                if l_heap if s_sum >= l_sum else s_heap:
                    break
            cursor = (cursor + 1) % v
        else:
            break
        # Take from the heap opposite the dominating dimension: a
        # load-intensive element while storage dominates, else a
        # size-intensive one.
        ld = s_sum >= l_sum
        take, other = (l_heap, s_heap) if ld else (s_heap, l_heap)
        pos = take.pop()
        if (s_sum + size[pos] if ld else l_sum + load[pos]) > cap:
            # Overflow: evict the most recent element of the other kind
            # (Lemma 1 guarantees it exists and its excess covers the
            # imbalance), then the disk becomes complete (Lemma 3).
            evictable = s_list if ld else l_lists[cursor]
            if evictable:
                out = evictable.pop()
                s_sum -= size[out]
                l_sum -= load[out]
                other.push(out, -diff[out] if ld else diff[out])
            else:
                # Theoretically unreachable (Lemma 1); guard against
                # degenerate float corner cases: put the element back and
                # close the disk.
                take.push(pos, diff[pos] if ld else -diff[pos])
                pos = -1
        if pos < 0:
            close(cursor)
        else:
            (l_lists[cursor] if ld else s_list).append(pos)
            s_sum += size[pos]
            l_sum += load[pos]
            s_sums[cursor] = s_sum
            l_sums[cursor] = l_sum
            if s_sum >= full and l_sum >= full:
                close(cursor)
        cursor = (cursor + 1) % v
        if not n_open:
            fresh_group()

    # -- Pack_Remaining_S / Pack_Remaining_L (lines 22-23) ---------------------
    # At most one heap is non-empty here (Lemma 5).  Remaining size-intensive
    # items only need the storage check (their load is <= their size), and
    # symmetrically for load-intensive items.  Each goes to the next open
    # disk with room, or to a fresh group when none has any.
    for heap, stacks, need, sums in (
        (s_heap, s_lists, size, s_sums),
        (l_heap, l_lists, load, l_sums),
    ):
        for pos in heap.drain():
            tries = v
            while stacks[cursor] is None or sums[cursor] + need[pos] > cap:
                cursor = (cursor + 1) % v
                tries -= 1
                if not tries:
                    fresh_group()
                    break
            stacks[cursor].append(pos)
            s_sums[cursor] += size[pos]
            l_sums[cursor] += load[pos]
            cursor = (cursor + 1) % v

    fresh_group()  # closes the last non-empty disks
    return Allocation.from_order(arr, order, offsets, name, rho)
