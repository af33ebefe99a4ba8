"""Unit and property tests for Pack_Disks (Algorithm 3).

The property tests check the paper's formal claims on random instances:
feasibility on both dimensions, exact coverage, the structural completeness
property of Lemmas 5/6, and the checkable consequence of Theorem 1
(``C_PD <= 1 + LB/(1 - rho)``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PackItem,
    continuous_lower_bound,
    make_items,
    pack_disks,
    rho_of,
    theorem1_guarantee,
)
from repro.core.packing import split_intensive
from repro.errors import PackingError

# Strategy: random item coordinate lists bounded well below 1.
coords = st.floats(min_value=1e-4, max_value=0.45)
item_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=150)


def items_from(pairs):
    return [PackItem(i, s, l) for i, (s, l) in enumerate(pairs)]


class TestBasics:
    def test_empty_input(self):
        alloc = pack_disks([])
        assert alloc.num_disks == 0
        assert alloc.algorithm == "pack_disks"

    def test_single_item(self):
        alloc = pack_disks([PackItem(0, 0.3, 0.2)])
        assert alloc.num_disks == 1
        assert alloc.disks[0].items == [PackItem(0, 0.3, 0.2)]

    def test_full_size_item_allowed(self):
        alloc = pack_disks([PackItem(0, 1.0, 0.1), PackItem(1, 0.9, 0.1)])
        alloc.validate()
        assert alloc.num_disks == 2

    def test_oversized_item_rejected(self):
        with pytest.raises(PackingError):
            pack_disks([PackItem(0, 1.5, 0.1)])
        with pytest.raises(PackingError):
            pack_disks([PackItem(0, 0.1, 1.5)])

    def test_negative_coordinate_rejected(self):
        with pytest.raises(PackingError):
            pack_disks([PackItem(0, -0.1, 0.1)])

    def test_nan_coordinate_rejected(self):
        with pytest.raises(PackingError, match="finite"):
            pack_disks([PackItem(0, math.nan, 0.2), PackItem(1, 0.1, 0.2)])
        with pytest.raises(PackingError, match="finite"):
            pack_disks([PackItem(0, 0.1, 0.2), PackItem(1, 0.1, math.nan)])

    def test_non_finite_rho_rejected(self):
        items = items_from([(0.2, 0.1)] * 20)
        for rho in (math.nan, math.inf):
            with pytest.raises(PackingError, match="rho"):
                pack_disks(items, rho=rho)

    def test_rho_below_items_rejected(self):
        with pytest.raises(PackingError):
            pack_disks([PackItem(0, 0.5, 0.1)], rho=0.3)

    def test_explicit_larger_rho_accepted(self):
        items = items_from([(0.2, 0.1)] * 20)
        alloc = pack_disks(items, rho=0.5)
        alloc.validate(items)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        items = items_from(zip(rng.uniform(0, 0.3, 200), rng.uniform(0, 0.3, 200)))
        a = pack_disks(items)
        b = pack_disks(items)
        assert [d.items for d in a.disks] == [d.items for d in b.disks]

    def test_perfect_packing_of_complements(self):
        # Items (0.5, 0.25) and (0.25, 0.5) pair up into complete disks
        # with rho = 0.5: S = L = 0.75 >= 1 - rho.
        items = items_from([(0.5, 0.25), (0.25, 0.5)] * 10)
        alloc = pack_disks(items)
        alloc.validate(items)
        # Perfectly balanced: lower bound is 7.5, pack must be close.
        assert alloc.num_disks <= 16

    def test_zero_load_items(self):
        # Pure-archive files: load 0 (never accessed).
        items = items_from([(0.4, 0.0)] * 10)
        alloc = pack_disks(items)
        alloc.validate(items)
        assert alloc.num_disks == 5  # 2 per disk by storage

    def test_mapping_roundtrip(self):
        items = items_from([(0.3, 0.1), (0.1, 0.3), (0.2, 0.2)])
        alloc = pack_disks(items)
        mapping = alloc.mapping(3)
        assert set(mapping.tolist()) <= set(range(alloc.num_disks))
        # Every file appears exactly once.
        assert sorted(
            it.index for d in alloc.disks for it in d.items
        ) == [0, 1, 2]


class TestSplit:
    def test_split_intensive(self):
        st_items, ld_items = split_intensive(
            [PackItem(0, 0.3, 0.1), PackItem(1, 0.1, 0.3), PackItem(2, 0.2, 0.2)]
        )
        assert [i.index for i in st_items] == [0, 2]
        assert [i.index for i in ld_items] == [1]


class TestProperties:
    @given(item_lists)
    def test_feasible_and_covering(self, pairs):
        items = items_from(pairs)
        alloc = pack_disks(items)
        alloc.validate(items)  # capacity + coverage + dense numbering

    @given(item_lists)
    def test_theorem1_guarantee(self, pairs):
        items = items_from(pairs)
        alloc = pack_disks(items)
        cap = theorem1_guarantee(items)
        assert alloc.num_disks <= math.floor(cap + 1e-9)

    @given(item_lists)
    def test_all_but_last_disk_s_or_l_complete(self, pairs):
        # Lemma 6: every closed disk except possibly the last is at least
        # s-complete or l-complete.
        items = items_from(pairs)
        rho = rho_of(items)
        alloc = pack_disks(items)
        for disk in alloc.disks[:-1]:
            assert disk.is_s_complete(rho) or disk.is_l_complete(rho), (
                f"disk {disk.index}: S={disk.total_size:.4f} "
                f"L={disk.total_load:.4f} rho={rho:.4f}"
            )

    @given(item_lists)
    def test_no_better_than_lower_bound(self, pairs):
        items = items_from(pairs)
        alloc = pack_disks(items)
        lb = continuous_lower_bound(items)
        assert alloc.num_disks >= math.ceil(lb - 1e-9)

    @settings(max_examples=20)
    @given(st.integers(1, 500), st.integers(0, 2**31 - 1))
    def test_random_instances_at_scale(self, n, seed):
        rng = np.random.default_rng(seed)
        items = make_items(
            rng.uniform(0.001, 0.4, n), rng.uniform(0.001, 0.4, n)
        )
        alloc = pack_disks(items)
        alloc.validate(items)
        assert alloc.num_disks <= theorem1_guarantee(items) + 1e-9


class TestEfficiency:
    def test_near_linear_growth(self):
        # The number of *eviction* events is bounded by the number of disks,
        # so runtime grows n log n; a crude sanity check that 8x input does
        # not blow up superquadratically (would be 64x).
        import time

        rng = np.random.default_rng(1)

        def run(n):
            items = make_items(
                rng.uniform(0.001, 0.2, n), rng.uniform(0.001, 0.2, n)
            )
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                pack_disks(items)
                best = min(best, time.perf_counter() - t0)
            return best

        t_small, t_big = run(2_000), run(16_000)
        assert t_big < 40 * t_small + 0.05
