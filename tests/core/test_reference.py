"""The O(n^2) reference must produce bit-identical output to Pack_Disks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    make_items,
    pack_disks,
    pack_disks_grouped,
    pack_disks_quadratic,
)
from repro.core.item import PackItem
from repro.errors import PackingError

coords = st.floats(min_value=1e-4, max_value=0.45)
item_lists = st.lists(st.tuples(coords, coords), min_size=0, max_size=120)


def disks_as_indices(alloc):
    return [[item.index for item in d.items] for d in alloc.disks]


# Coordinates on a coarse grid: many items share an excess key, so the
# heaps' FIFO tie order decides most extractions.
grid = st.sampled_from([0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4])
tie_heavy_lists = st.lists(st.tuples(grid, grid), min_size=0, max_size=150)


class TestEquivalence:
    @given(tie_heavy_lists)
    def test_identical_output_when_keys_tie(self, pairs):
        items = [PackItem(i, s, l) for i, (s, l) in enumerate(pairs)]
        fast = disks_as_indices(pack_disks(items))
        assert fast == disks_as_indices(pack_disks_quadratic(items))
        assert fast == disks_as_indices(pack_disks_grouped(items, v=1))

    @given(item_lists)
    def test_identical_output(self, pairs):
        items = [PackItem(i, s, l) for i, (s, l) in enumerate(pairs)]
        fast = pack_disks(items)
        slow = pack_disks_quadratic(items)
        assert disks_as_indices(fast) == disks_as_indices(slow)

    @settings(max_examples=10)
    @given(st.integers(50, 800), st.integers(0, 2**31 - 1))
    def test_identical_on_larger_instances(self, n, seed):
        rng = np.random.default_rng(seed)
        items = make_items(
            rng.uniform(0.001, 0.35, n), rng.uniform(0.001, 0.35, n)
        )
        assert disks_as_indices(pack_disks(items)) == disks_as_indices(
            pack_disks_quadratic(items)
        )

    def test_validation_matches(self):
        with pytest.raises(PackingError):
            pack_disks_quadratic([PackItem(0, 2.0, 0.1)])
        with pytest.raises(PackingError):
            pack_disks_quadratic([PackItem(0, 0.5, 0.1)], rho=0.2)
        for pack in (pack_disks_quadratic, pack_disks_grouped):
            with pytest.raises(PackingError, match="finite"):
                pack([PackItem(0, math.nan, 0.1)])
            with pytest.raises(PackingError, match="rho"):
                pack([PackItem(0, 0.5, 0.1)], rho=math.nan)

    def test_algorithm_label(self):
        alloc = pack_disks_quadratic([PackItem(0, 0.1, 0.1)])
        assert alloc.algorithm == "pack_disks_quadratic"
