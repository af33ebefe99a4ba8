"""The earlier LRU, FIFO and CLOCK caches, kept as test oracles.

Before the caches shared one eviction order, each policy kept its own
order beside ``BaseCache``'s plain size dict: an ``OrderedDict`` for
LRU, a ``deque`` for FIFO and an ``OrderedDict`` ring for CLOCK.  These
standalone copies of that design are what
``tests/cache/test_cache_twins.py`` holds the shipping policies to:
identical verdicts, eviction sequence, ``used`` and ``CacheStats``.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Dict, Optional

from repro.cache.base import CacheStats
from repro.errors import ConfigError

__all__ = ["OracleClock", "OracleFIFO", "OracleLRU", "ORACLES"]


class _OracleBase:
    def __init__(self, capacity: float) -> None:
        self.capacity = float(capacity)
        self.used = 0.0
        self._sizes: Dict[int, float] = {}
        self.stats = CacheStats()
        self.evict_hook: Optional[Callable[[int], None]] = None

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._sizes

    def lookup(self, file_id: int, size: float) -> bool:
        if file_id in self._sizes:
            self.stats.hits += 1
            self.stats.bytes_hit += size
            self._on_hit(file_id)
            return True
        self.stats.misses += 1
        self.stats.bytes_missed += size
        return False

    def admit(self, file_id: int, size: float) -> bool:
        if size < 0:
            raise ConfigError("file size must be >= 0")
        if size > self.capacity:
            self.stats.rejected += 1
            return False
        if file_id in self._sizes:
            self._on_hit(file_id)
            return True
        while self._sizes and self.used + size > self.capacity:
            self._evict(self._victim())
        self._sizes[file_id] = size
        self.used += size
        self.stats.insertions += 1
        self._on_insert(file_id)
        return True

    def _evict(self, file_id: int) -> None:
        size = self._sizes.pop(file_id)
        self.used -= size
        if not self._sizes:
            self.used = 0.0
        self.stats.evictions += 1
        self._on_evict(file_id)
        if self.evict_hook is not None:
            self.evict_hook(file_id)

    def _victim(self) -> int:  # pragma: no cover - every oracle overrides
        raise NotImplementedError

    def _on_hit(self, file_id: int) -> None:
        pass

    def _on_insert(self, file_id: int) -> None:
        pass

    def _on_evict(self, file_id: int) -> None:
        pass


class OracleLRU(_OracleBase):
    def __init__(self, capacity: float) -> None:
        super().__init__(capacity)
        self._order: OrderedDict = OrderedDict()

    def _victim(self) -> int:
        return next(iter(self._order))

    def _on_hit(self, file_id: int) -> None:
        self._order.move_to_end(file_id)

    def _on_insert(self, file_id: int) -> None:
        self._order[file_id] = None

    def _on_evict(self, file_id: int) -> None:
        del self._order[file_id]


class OracleFIFO(_OracleBase):
    def __init__(self, capacity: float) -> None:
        super().__init__(capacity)
        self._order: deque = deque()

    def _victim(self) -> int:
        return self._order[0]

    def _on_insert(self, file_id: int) -> None:
        self._order.append(file_id)

    def _on_evict(self, file_id: int) -> None:
        assert self._order.popleft() == file_id


class OracleClock(_OracleBase):
    def __init__(self, capacity: float) -> None:
        super().__init__(capacity)
        self._ref: OrderedDict = OrderedDict()

    def _victim(self) -> int:
        while True:
            file_id, referenced = next(iter(self._ref.items()))
            if referenced:
                self._ref[file_id] = False
                self._ref.move_to_end(file_id)
            else:
                return file_id

    def _on_hit(self, file_id: int) -> None:
        self._ref[file_id] = True

    def _on_insert(self, file_id: int) -> None:
        self._ref[file_id] = False

    def _on_evict(self, file_id: int) -> None:
        del self._ref[file_id]


#: Policy name -> oracle class.
ORACLES = {"lru": OracleLRU, "fifo": OracleFIFO, "clock": OracleClock}
