"""Least-recently-used cache — the policy the paper evaluates (16 GB)."""

from __future__ import annotations

from repro.cache.base import BaseCache

__all__ = ["LRUCache"]


class LRUCache(BaseCache):
    """Evicts the file untouched for the longest time.

    O(1) per operation: a hit moves the file to the end of the shared
    eviction order, so the head is always the least recently used.
    """

    policy_name = "lru"

    def __init__(self, capacity: float) -> None:
        super().__init__(capacity)
        self._on_hit = self._sizes.move_to_end

    def recency_order(self) -> list:
        """File ids from least to most recently used (tests/diagnostics)."""
        return list(self._sizes)
