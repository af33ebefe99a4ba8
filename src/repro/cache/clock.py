"""CLOCK (second-chance) cache — an LRU approximation with O(1) hits."""

from __future__ import annotations

from typing import Set

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

    def _victim(self) -> int:
        while True:
            file_id = next(iter(self._sizes))
            if file_id not in self._referenced:
                return file_id
            # Second chance: clear the bit, move behind the hand.
            self._referenced.discard(file_id)
            self._sizes.move_to_end(file_id)

    def _on_hit(self, file_id: int) -> None:
        self._referenced.add(file_id)

    def _on_evict(self, file_id: int) -> None:
        self._referenced.discard(file_id)
