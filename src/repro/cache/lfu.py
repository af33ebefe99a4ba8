"""Least-frequently-used cache (ties broken LRU)."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, Tuple

from repro.cache.base import BaseCache

__all__ = ["LFUCache"]


class LFUCache(BaseCache):
    """Evicts the file with the fewest recorded accesses.

    Uses a lazy heap of ``(frequency, seq, file_id)`` snapshots; stale
    entries (frequency changed since push) are skipped at pop time, giving
    amortized O(log n) operations.
    """

    policy_name = "lfu"

    def __init__(self, capacity: float) -> None:
        super().__init__(capacity)
        self._freq: Dict[int, int] = {}
        self._heap: list = []
        self._seq = count()

    def _push(self, file_id: int) -> None:
        heappush(self._heap, (self._freq[file_id], next(self._seq), file_id))

    def _pop_victim(self) -> Tuple[int, float]:
        heap = self._heap
        freq = self._freq
        while heap:
            snapshot, _, file_id = heap[0]
            if freq.get(file_id) == snapshot:
                # The victim's snapshot stays on the heap: a file
                # re-admitted before it is popped ranks by it while its
                # frequency is back at the snapshot's, and the eviction
                # order the engines record depends on that.
                del freq[file_id]
                return file_id, self._sizes.pop(file_id)
            heappop(heap)  # stale snapshot
        raise RuntimeError("LFU heap empty while cache non-empty")  # pragma: no cover

    def _on_hit(self, file_id: int) -> None:
        if file_id in self._freq:
            self._freq[file_id] += 1
            self._push(file_id)

    def _on_insert(self, file_id: int) -> None:
        self._freq[file_id] = 1
        self._push(file_id)

    def frequency(self, file_id: int) -> int:
        """Recorded access count of a resident file (tests/diagnostics)."""
        return self._freq[file_id]
