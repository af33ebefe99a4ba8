"""Cache interface, statistics, and factory."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.errors import ConfigError

__all__ = ["BaseCache", "CacheStats", "make_cache"]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected: int = 0  # files larger than the whole cache
    bytes_hit: float = 0.0
    bytes_missed: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from cache (nan before any lookup)."""
        total = self.lookups
        return self.hits / total if total else float("nan")

    @property
    def byte_hit_ratio(self) -> float:
        total = self.bytes_hit + self.bytes_missed
        return self.bytes_hit / total if total else float("nan")


class BaseCache:
    """Common machinery for whole-file caches.

    Resident files live in one ordered map, ``_sizes``, kept in eviction
    order: insertion appends, and the default :meth:`_pop_victim` pops the
    head.  That is FIFO as it stands; LRU only moves a hit to the end.
    Policies that rank files otherwise override :meth:`_pop_victim` and
    the bookkeeping hooks :meth:`_on_hit` / :meth:`_on_insert`.

    Parameters
    ----------
    capacity:
        Cache size in bytes (> 0).
    """

    policy_name = "base"

    def __init__(self, capacity: float) -> None:
        if not capacity > 0:  # also rejects NaN
            raise ConfigError(f"cache capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        self.used = 0.0
        self._sizes: OrderedDict[int, float] = OrderedDict()
        self.stats = CacheStats()
        # Optional observability callback (``repro.obs``): called with the
        # victim's file id on every eviction.  Purely passive — engines
        # install it only when a run carries an enabled observer.
        self.evict_hook: Optional[Callable[[int], None]] = None

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._sizes

    def lookup(self, file_id: int, size: float) -> bool:
        """Check for ``file_id``; records hit/miss and updates recency.

        Returns True on hit.
        """
        stats = self.stats
        if file_id in self._sizes:
            stats.hits += 1
            stats.bytes_hit += size
            self._on_hit(file_id)
            return True
        stats.misses += 1
        stats.bytes_missed += size
        return False

    def admit(self, file_id: int, size: float) -> bool:
        """Insert ``file_id`` after a miss completes, evicting as needed.

        Files larger than the entire cache are rejected (returns False).
        Re-admitting a resident file only refreshes its policy state.
        """
        if not size >= 0:  # also rejects NaN
            raise ConfigError(f"file size must be >= 0, got {size}")
        stats = self.stats
        if size > self.capacity:
            stats.rejected += 1
            return False
        sizes = self._sizes
        if file_id in sizes:
            self._on_hit(file_id)
            return True
        # Guard on residency as well as byte pressure: `used` is a float
        # accumulator, so evicting in a different order than insertion can
        # leave a ~1e-16 residue even when the cache is empty — without the
        # guard that residue would send `_pop_victim()` hunting an empty
        # cache.
        capacity = self.capacity
        while sizes and self.used + size > capacity:
            victim, victim_size = self._pop_victim()
            self.used -= victim_size
            if not sizes:
                # Clear float-accumulation residue so `used <= capacity`
                # stays an exact invariant across arbitrarily long admit
                # streams.
                self.used = 0.0
            stats.evictions += 1
            if self.evict_hook is not None:
                self.evict_hook(victim)
        sizes[file_id] = size
        self.used += size
        stats.insertions += 1
        self._on_insert(file_id)
        return True

    # -- policy hooks ------------------------------------------------------------

    def _pop_victim(self) -> Tuple[int, float]:
        """Remove the next file to evict and return ``(file_id, size)``
        (cache guaranteed non-empty); policies keep their own bookkeeping
        in step here."""
        return self._sizes.popitem(last=False)

    def _on_hit(self, file_id: int) -> None:  # pragma: no cover - default no-op
        pass

    def _on_insert(self, file_id: int) -> None:  # pragma: no cover - default no-op
        pass


def make_cache(policy: str, capacity: float) -> BaseCache:
    """Factory by policy name: ``lru``, ``lfu``, ``fifo`` or ``clock``."""
    from repro.cache.clock import ClockCache
    from repro.cache.fifo import FIFOCache
    from repro.cache.lfu import LFUCache
    from repro.cache.lru import LRUCache

    policies = {
        "lru": LRUCache,
        "lfu": LFUCache,
        "fifo": FIFOCache,
        "clock": ClockCache,
    }
    try:
        cls = policies[policy.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown cache policy {policy!r}; choose from {sorted(policies)}"
        ) from None
    return cls(capacity)
