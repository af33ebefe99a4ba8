"""A keyed max-heap with O(n) construction.

The paper's complexity argument (Lemma 7) rests on this structure: the two
heaps ``~S`` and ``~L`` are built in O(n) and support O(log n) insert and
extract-max, giving the overall O(n log n) bound.  The standard library's
:mod:`heapq` provides exactly those costs: ``heapify`` builds in O(n) and
``heappush``/``heappop`` are O(log n).  Ties are broken FIFO by insertion
sequence so packing output is fully deterministic.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Generic, Iterable, List, Optional, Tuple, TypeVar

__all__ = ["MaxHeap"]

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
