"""First-in-first-out cache (insertion order, oblivious to hits)."""

from __future__ import annotations

from repro.cache.base import BaseCache

__all__ = ["FIFOCache"]


class FIFOCache(BaseCache):
    """Evicts the oldest *inserted* file regardless of access recency.

    The shared eviction order is insertion order and hits leave it alone,
    so the base class's head victim is already FIFO.
    """

    policy_name = "fifo"
