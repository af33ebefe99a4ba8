"""The shipping caches against their earlier implementations.

LRU, FIFO and CLOCK now keep their eviction order in ``BaseCache``'s
single ordered size map instead of a second per-policy structure.  The
engines' cache-event streams and results depend on the exact eviction
order, so each policy must reproduce its ``cache_oracle`` twin exactly
over random lookup/admit sequences: every verdict, the eviction sequence
(seen through ``evict_hook``), ``used`` to the bit, and ``CacheStats``.
"""

import pytest
from hypothesis import given, strategies as st

from cache_oracle import ORACLES
from repro.cache import make_cache

CAPACITY = 100.0

sizes = st.one_of(
    st.floats(0.0, 60.0, allow_nan=False),
    # Capacity-sized, oversized and empty files, and sizes that tile the
    # capacity exactly.
    st.sampled_from([0.0, 12.5, 25.0, 33.3, 50.0, 100.0, 100.5, 150.0]),
)
ops = st.lists(
    st.tuples(st.sampled_from(["lookup", "admit", "read"]),
              st.integers(0, 15), sizes),
    max_size=250,
)


def _recording(cache):
    evicted = []
    cache.evict_hook = evicted.append
    return evicted


@pytest.mark.parametrize("policy", sorted(ORACLES))
@given(ops=ops)
def test_matches_the_earlier_policy(policy, ops):
    cache = make_cache(policy, CAPACITY)
    oracle = ORACLES[policy](CAPACITY)
    got, want = _recording(cache), _recording(oracle)
    for op, file_id, size in ops:
        if op == "read":
            # The engines' read: look up, and admit on a miss.
            verdicts = [c.lookup(file_id, size) for c in (cache, oracle)]
            if not verdicts[0]:
                verdicts += [c.admit(file_id, size) for c in (cache, oracle)]
        else:
            verdicts = [
                getattr(c, op)(file_id, size) for c in (cache, oracle)
            ]
        assert verdicts[0::2] == verdicts[1::2]
        assert got == want
        assert cache.used.hex() == oracle.used.hex()
        assert len(cache) == len(oracle)
    assert cache.stats == oracle.stats
    assert all((f in cache) == (f in oracle) for f in range(16))


def test_lru_hit_reorders_fifo_hit_does_not():
    for policy, victim in (("lru", 2), ("fifo", 1)):
        cache = make_cache(policy, CAPACITY)
        evicted = _recording(cache)
        for file_id in (1, 2, 3):
            cache.admit(file_id, 30.0)
        assert cache.lookup(1, 30.0)
        cache.admit(4, 30.0)
        assert evicted == [victim]
