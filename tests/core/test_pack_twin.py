"""The array-native allocators against their heap-based twins.

``pack_oracle`` keeps the original heap-based ``Pack_Disks``,
``Pack_Disks_v`` and the per-item random baseline.  The array versions in
``src`` must match them exactly: the same disks, the same mapping and the
same placement order on each disk, the same errors, and for the random
baseline the same generator end state.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pack_oracle as oracle
from repro.core import (
    ItemArray,
    PackItem,
    pack_disks,
    pack_disks_grouped,
    random_allocation,
)
from repro.errors import CapacityError, PackingError

#: ``pack`` is v = None; ``pack_v<k>`` is v = k.
VARIANTS = (None, 1, 2, 3, 4, 5)


def layout(alloc):
    return [[item.index for item in disk.items] for disk in alloc.disks]


def run_pair(items, v, rho=None):
    if v is None:
        return oracle.pack_disks(items, rho=rho), pack_disks(items, rho=rho)
    return (
        oracle.pack_disks_grouped(items, v=v, rho=rho),
        pack_disks_grouped(items, v=v, rho=rho),
    )


def assert_twins(items, rho=None):
    n = len(items)
    as_array = ItemArray(
        np.array([it.size for it in items], dtype=float),
        np.array([it.load for it in items], dtype=float),
    )
    for v in VARIANTS:
        want, got = run_pair(items, v, rho)
        assert got.num_disks == want.num_disks, v
        assert np.array_equal(got.mapping(n), want.mapping(n)), v
        assert layout(got) == layout(want), v
        assert got.rho == want.rho and got.algorithm == want.algorithm
        # The arrays build_items hands over pack the same way.
        _, native = run_pair(as_array, v, rho)
        assert layout(native) == layout(want), v


def items_from(pairs):
    return [PackItem(i, s, l) for i, (s, l) in enumerate(pairs)]


# Coarse grid: few distinct keys, so equal keys force FIFO tie-breaks.
grid = st.integers(0, 8).map(lambda k: k * 0.05)
# Large coordinates: most additions overflow, so evictions are frequent;
# on the grid, evicted items tie with items never popped.
large = st.one_of(st.floats(0.2, 0.95), st.integers(0, 19).map(lambda k: k * 0.05))
fine = st.floats(1e-4, 0.45)


class TestPackTwins:
    @given(st.lists(st.tuples(grid, grid), max_size=120))
    def test_tied_keys(self, pairs):
        assert_twins(items_from(pairs))

    @given(st.lists(st.tuples(large, large), min_size=1, max_size=80))
    def test_eviction_heavy(self, pairs):
        assert_twins(items_from(pairs))

    @given(st.lists(st.tuples(fine, fine), min_size=1, max_size=150))
    def test_mixed(self, pairs):
        assert_twins(items_from(pairs))

    @given(st.lists(st.tuples(fine, fine), min_size=1, max_size=100))
    def test_all_size_intensive(self, pairs):
        assert_twins(items_from([(max(s, l), min(s, l)) for s, l in pairs]))

    @given(
        st.lists(
            st.tuples(fine, fine).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=100,
        )
    )
    def test_all_load_intensive(self, pairs):
        assert_twins(items_from([(min(s, l), max(s, l)) for s, l in pairs]))

    def test_empty(self):
        assert_twins([])

    def test_evicted_item_pops_after_equal_key_never_popped(self):
        # File 2 overflows the first disk's load and evicts file 0, whose
        # key 0.4 equals that of file 1, still in the sorted run: file 1
        # entered the heap first, so it pops first.
        items = items_from([(0.15, 0.55), (0.15, 0.55), (0.8, 0.75)])
        assert layout(oracle.pack_disks(items)) == [[2], [1], [0]]
        assert_twins(items)

    @given(
        st.lists(st.tuples(grid, grid), min_size=1, max_size=60),
        st.floats(0.0, 0.5),
    )
    def test_explicit_rho(self, pairs, slack):
        items = items_from(pairs)
        tight = max(max(it.size, it.load) for it in items)
        assert_twins(items, rho=tight + slack)

    @given(st.lists(st.tuples(grid, grid), max_size=40), st.integers(0, 39))
    def test_non_sequential_indices(self, pairs, offset):
        items = [PackItem(3 * i + offset, s, l) for i, (s, l) in enumerate(pairs)]
        for v in VARIANTS:
            want, got = run_pair(items, v)
            assert layout(got) == layout(want)
            assert got.mapping_dict() == want.mapping_dict()


bad_coordinate = st.sampled_from([math.nan, -0.1, 1.5, math.inf, -math.inf])


class TestPackTwinErrors:
    @given(
        st.lists(st.tuples(fine, fine), min_size=1, max_size=30),
        st.data(),
    )
    def test_bad_coordinates_raise_the_same_error(self, pairs, data):
        pairs = list(pairs)
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(pairs) - 1))
            s, l = pairs[pos]
            bad = data.draw(bad_coordinate)
            pairs[pos] = (bad, l) if data.draw(st.booleans()) else (s, bad)
        items = items_from(pairs)
        for v in VARIANTS:
            with pytest.raises(PackingError) as want:
                run_pair(items, v)[0]
            with pytest.raises(PackingError) as got:
                run_pair(items, v)[1]
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 0.1])
    def test_bad_rho_raises_the_same_error(self, rho):
        items = items_from([(0.3, 0.2), (0.1, 0.25)])
        for v in VARIANTS:
            with pytest.raises(PackingError) as want:
                run_pair(items, v, rho)[0]
            with pytest.raises(PackingError) as got:
                run_pair(items, v, rho)[1]
            assert str(got.value) == str(want.value)


def first_redraw(items, num_disks, seed):
    """Position of the first item whose drawn disk is full, or None."""
    rng = np.random.default_rng(seed)
    fill = np.zeros(num_disks)
    for pos, item in enumerate(items):
        disk = int(rng.integers(num_disks))
        if fill[disk] + item.size > 1 + 1e-9:
            return pos
        fill[disk] += item.size
    return None


#: Seeds the baseline tests and experiments already use.
SEEDS = (0, 1, 2, 3, 5, 7, 42, 20090525)


def random_pair(items, num_disks, seed, respect_capacity=True):
    """Both baselines on one seed; (allocation or error, end state) each."""
    out = []
    for fn in (oracle.random_allocation, random_allocation):
        rng = np.random.default_rng(seed)
        try:
            result = fn(items, num_disks, rng=rng, respect_capacity=respect_capacity)
        except CapacityError as exc:
            result = exc
        out.append((result, rng.bit_generator.state))
    return out


class TestRandomTwin:
    CASES = {
        # No file ever meets a full disk.
        "never": (items_from([(0.001, 0.5)] * 400), 10),
        # File 0 fills its disk; the next file drawn there needs a re-draw.
        "early": (items_from([(1.0, 0.0)] + [(0.01, 0.2)] * 40), 2),
        # Tiny files, then near-full ones at the very end.
        "late": (items_from([(0.002, 0.1)] * 600 + [(0.9, 0.0)] * 12), 14),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mapping_and_generator_state(self, case, seed):
        items, num_disks = self.CASES[case]
        at = first_redraw(items, num_disks, seed)
        if case == "never":
            assert at is None
        elif case == "early":
            assert at is not None and at < 10
        else:
            assert at is not None and at >= 600
        (want, want_state), (got, got_state) = random_pair(items, num_disks, seed)
        assert got_state == want_state
        if isinstance(want, CapacityError):
            assert str(got) == str(want)
            return
        assert layout(got) == layout(want)
        assert np.array_equal(got.mapping(len(items)), want.mapping(len(items)))
        assert got.num_disks == want.num_disks == num_disks
        assert got.algorithm == want.algorithm

    @pytest.mark.parametrize("seed", SEEDS)
    def test_capacity_error_at_first_redraw(self, seed):
        # One disk: the second 0.6 file needs a re-draw and nothing fits.
        items = items_from([(0.6, 0.0), (0.6, 0.0), (0.1, 0.0)])
        assert first_redraw(items, 1, seed) == 1
        (want, want_state), (got, got_state) = random_pair(items, 1, seed)
        assert isinstance(want, CapacityError) and isinstance(got, CapacityError)
        assert str(got) == str(want)
        assert got_state == want_state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ignoring_capacity(self, seed):
        items, num_disks = self.CASES["early"]
        (want, want_state), (got, got_state) = random_pair(
            items, num_disks, seed, respect_capacity=False
        )
        assert layout(got) == layout(want)
        assert got_state == want_state

    @given(
        st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.7]), max_size=60),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_random_instances(self, sizes, num_disks, seed):
        items = items_from([(s, 0.1) for s in sizes])
        (want, want_state), (got, got_state) = random_pair(items, num_disks, seed)
        assert got_state == want_state
        if isinstance(want, CapacityError):
            assert isinstance(got, CapacityError) and str(got) == str(want)
        else:
            assert layout(got) == layout(want)
