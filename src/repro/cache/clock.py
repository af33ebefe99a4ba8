"""CLOCK (second-chance) cache — an LRU approximation with O(1) hits."""

from __future__ import annotations

from typing import Set, Tuple

from repro.cache.base import BaseCache

__all__ = ["ClockCache"]


class ClockCache(BaseCache):
    """Second-chance eviction.

    Resident files sit on a circular list with a reference bit.  A hit sets
    the bit; the eviction hand clears bits until it finds an unset one,
    which is evicted.  Approximates LRU without per-hit reordering.
    """

    policy_name = "clock"

    def __init__(self, capacity: float) -> None:
        super().__init__(capacity)
        # The shared eviction order is the circle (iteration order is hand
        # order); the set holds the files whose reference bit is set.
        self._referenced: Set[int] = set()

    def _pop_victim(self) -> Tuple[int, float]:
        sizes = self._sizes
        referenced = self._referenced
        while True:
            file_id, size = sizes.popitem(last=False)
            if file_id not in referenced:
                return file_id, size
            # Second chance: clear the bit, move behind the hand.
            referenced.discard(file_id)
            sizes[file_id] = size

    def _on_hit(self, file_id: int) -> None:
        self._referenced.add(file_id)
