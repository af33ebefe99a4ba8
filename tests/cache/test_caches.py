"""Unit and property tests for every cache policy."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache import (
    BaseCache,
    ClockCache,
    FIFOCache,
    LFUCache,
    LRUCache,
    make_cache,
)
from repro.errors import ConfigError

ALL_POLICIES = ["lru", "lfu", "fifo", "clock"]


class TestFactory:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_make_cache(self, policy):
        cache = make_cache(policy, 100.0)
        assert isinstance(cache, BaseCache)
        assert cache.policy_name == policy

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            make_cache("magic", 100.0)

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            LRUCache(0.0)


class TestNaNInputs:
    """NaN fails every comparison: a NaN capacity never triggered eviction
    and a NaN size turned ``used`` into NaN for good."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_nan_capacity_rejected(self, policy):
        with pytest.raises(ConfigError, match="capacity"):
            make_cache(policy, math.nan)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_nan_size_rejected(self, policy):
        cache = make_cache(policy, 100.0)
        with pytest.raises(ConfigError, match="size"):
            cache.admit(1, math.nan)
        assert 1 not in cache
        assert cache.used == 0.0
        # Eviction still works afterwards.
        cache.admit(2, 60.0)
        cache.admit(3, 60.0)
        assert 2 not in cache and 3 in cache
        assert cache.used == 60.0
        assert cache.stats.evictions == 1


class TestCommonBehaviour:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_miss_then_hit(self, policy):
        cache = make_cache(policy, 100.0)
        assert not cache.lookup(1, 10.0)
        cache.admit(1, 10.0)
        assert cache.lookup(1, 10.0)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == 0.5

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_oversized_file_rejected(self, policy):
        cache = make_cache(policy, 100.0)
        assert not cache.admit(1, 150.0)
        assert cache.stats.rejected == 1
        assert 1 not in cache

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_eviction_keeps_capacity(self, policy):
        cache = make_cache(policy, 100.0)
        for i in range(20):
            cache.admit(i, 30.0)
            assert cache.used <= 100.0
        assert cache.stats.evictions > 0

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_readmission_refreshes_not_duplicates(self, policy):
        cache = make_cache(policy, 100.0)
        cache.admit(1, 40.0)
        cache.admit(1, 40.0)
        assert cache.used == 40.0
        assert len(cache) == 1

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_byte_hit_ratio(self, policy):
        cache = make_cache(policy, 100.0)
        cache.lookup(1, 60.0)  # miss
        cache.admit(1, 60.0)
        cache.lookup(1, 60.0)  # hit
        assert cache.stats.byte_hit_ratio == pytest.approx(0.5)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_negative_size_rejected(self, policy):
        cache = make_cache(policy, 100.0)
        with pytest.raises(ConfigError):
            cache.admit(1, -5.0)

    def test_hit_ratio_nan_before_lookups(self):
        cache = LRUCache(10.0)
        assert math.isnan(cache.stats.hit_ratio)
        assert math.isnan(cache.stats.byte_hit_ratio)


class TestLRU:
    def test_evicts_least_recent(self):
        cache = LRUCache(100.0)
        cache.admit(1, 40.0)
        cache.admit(2, 40.0)
        cache.lookup(1, 40.0)  # refresh 1
        cache.admit(3, 40.0)  # evicts 2
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_recency_order(self):
        cache = LRUCache(1_000.0)
        for i in range(3):
            cache.admit(i, 10.0)
        cache.lookup(0, 10.0)
        assert cache.recency_order() == [1, 2, 0]


class TestLFU:
    def test_evicts_least_frequent(self):
        cache = LFUCache(100.0)
        cache.admit(1, 40.0)
        cache.admit(2, 40.0)
        for _ in range(5):
            cache.lookup(1, 40.0)
        cache.admit(3, 40.0)  # evicts 2 (freq 1 vs 6)
        assert 1 in cache and 2 not in cache

    def test_frequency_tracking(self):
        cache = LFUCache(100.0)
        cache.admit(1, 10.0)
        cache.lookup(1, 10.0)
        cache.lookup(1, 10.0)
        assert cache.frequency(1) == 3

    def test_tie_broken_by_insertion(self):
        cache = LFUCache(100.0)
        cache.admit(1, 50.0)
        cache.admit(2, 50.0)
        cache.admit(3, 50.0)  # both freq 1; evicts 1 then 2 as needed
        assert 1 not in cache or 2 not in cache
        assert 3 in cache


class TestFIFO:
    def test_evicts_oldest_regardless_of_hits(self):
        cache = FIFOCache(100.0)
        cache.admit(1, 40.0)
        cache.admit(2, 40.0)
        for _ in range(10):
            cache.lookup(1, 40.0)  # hits don't save it
        cache.admit(3, 40.0)
        assert 1 not in cache
        assert 2 in cache and 3 in cache


class TestClock:
    def test_second_chance(self):
        cache = ClockCache(100.0)
        cache.admit(1, 40.0)
        cache.admit(2, 40.0)
        cache.lookup(1, 40.0)  # sets ref bit on 1
        cache.admit(3, 40.0)  # hand skips 1 (clears bit), evicts 2
        assert 1 in cache and 2 not in cache and 3 in cache

    def test_unreferenced_evicted_in_order(self):
        cache = ClockCache(100.0)
        cache.admit(1, 50.0)
        cache.admit(2, 50.0)
        cache.admit(3, 50.0)  # no hits anywhere: evicts 1
        assert 1 not in cache and 2 in cache and 3 in cache


class TestInvariantProperty:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 20), st.floats(1.0, 60.0)),
            max_size=200,
        )
    )
    def test_used_bytes_consistent(self, policy, ops):
        cache = make_cache(policy, 100.0)
        sizes = {}
        for file_id, size in ops:
            size = sizes.setdefault(file_id, size)  # stable per file
            if not cache.lookup(file_id, size):
                cache.admit(file_id, size)
            assert cache.used <= 100.0 + 1e-9
            assert cache.used == pytest.approx(
                sum(sizes[f] for f in sizes if f in cache)
            )
            assert len(cache) == sum(1 for f in sizes if f in cache)


class TestAdmitTermination:
    """Regression: float-accumulated `used` must never strand the eviction
    loop on an empty cache (or let `used` exceed `capacity`)."""

    # Inserting these then evicting all of them in insertion order leaves
    # `used` at +1.87e-16 (float addition does not commute with the
    # subtraction order), which is large enough that `used + 1.0 > 1.0`
    # still holds on the emptied cache.
    RESIDUE_SIZES = (0.105, 0.113, 0.025, 0.176, 0.059, 0.062, 0.048, 0.044, 0.052)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_full_flush_with_float_residue(self, policy):
        # Admitting a capacity-sized file must evict *everything* and still
        # terminate — the unguarded eviction loop used to keep calling
        # `_victim()` on the emptied cache and crash on the residue.
        cache = make_cache(policy, 1.0)
        for i, size in enumerate(self.RESIDUE_SIZES):
            cache.admit(i, size)
        assert cache.admit(100, 1.0) is True
        assert 100 in cache
        assert len(cache) == 1
        assert cache.used <= cache.capacity

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_used_resets_exactly_at_empty(self, policy):
        cache = make_cache(policy, 1.0)
        for i, size in enumerate(self.RESIDUE_SIZES):
            cache.admit(i, size)
        # A capacity-sized file evicts everything through capacity
        # pressure; the hook sees `used` as each victim leaves.
        seen = []
        cache.evict_hook = lambda f: seen.append((len(cache), cache.used))
        cache.admit(99, 1.0)
        assert len(seen) == len(self.RESIDUE_SIZES)
        # Emptied: exactly zero before the insert (the subtractions alone
        # leave +1.87e-16), and exactly the inserted size after it.
        assert seen[-1] == (0, 0.0)
        assert cache.used == 1.0

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 30), st.sampled_from([0.1, 0.2, 0.3, 1.0])),
            max_size=300,
        )
    )
    def test_capacity_invariant_under_float_sizes(self, policy, ops):
        cache = make_cache(policy, 1.0)
        for file_id, size in ops:
            if not cache.lookup(file_id, size):
                cache.admit(file_id, size)
            assert cache.used <= cache.capacity + 1e-12
            if len(cache) == 0:
                assert cache.used == 0.0
