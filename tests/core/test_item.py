"""Unit tests for PackItem construction and normalization."""

import math

import numpy as np
import pytest

from repro.core import PackItem, make_items, rho_of
from repro.errors import PackingError


class TestMakeItems:
    def test_normalization(self):
        items = make_items([50.0, 100.0], [0.4, 0.8], storage_capacity=100.0,
                           load_capacity=0.8)
        assert items[0] == PackItem(0, 0.5, 0.5)
        assert items[1] == PackItem(1, 1.0, 1.0)

    def test_indices_sequential(self):
        items = make_items([1, 2, 3], [0.1, 0.2, 0.3], 10, 1)
        assert [it.index for it in items] == [0, 1, 2]

    def test_length_mismatch_rejected(self):
        with pytest.raises(PackingError):
            make_items([1, 2], [0.1], 10, 1)

    def test_negative_values_rejected(self):
        with pytest.raises(PackingError):
            make_items([-1.0], [0.1], 10, 1)
        with pytest.raises(PackingError):
            make_items([1.0], [-0.1], 10, 1)

    def test_oversized_file_rejected(self):
        with pytest.raises(PackingError, match="storage"):
            make_items([11.0], [0.1], 10, 1)

    def test_overloaded_file_rejected(self):
        with pytest.raises(PackingError, match="load"):
            make_items([1.0], [1.2], 10, 1)

    def test_bad_capacities_rejected(self):
        with pytest.raises(PackingError):
            make_items([1.0], [0.1], 0, 1)
        with pytest.raises(PackingError):
            make_items([1.0], [0.1], 1, -2)
        for bad in (math.nan, math.inf):
            with pytest.raises(PackingError, match="finite"):
                make_items([1.0], [0.1], bad, 1)
            with pytest.raises(PackingError, match="finite"):
                make_items([1.0], [0.1], 10, bad)

    def test_nan_coordinates_rejected(self):
        with pytest.raises(PackingError, match="finite"):
            make_items([math.nan, 0.1], [0.1, 0.1])
        with pytest.raises(PackingError, match="finite"):
            make_items([0.1, 0.1], [0.1, math.nan])

    def test_list_built_items_are_plain_floats(self):
        items = make_items(np.array([0.25, 0.5]), np.array([0.1, 0.3]))
        assert all(
            type(it.size) is float and type(it.load) is float for it in items
        )
        assert items == [PackItem(0, 0.25, 0.1), PackItem(1, 0.5, 0.3)]

    def test_2d_input_rejected(self):
        with pytest.raises(PackingError):
            make_items([[1.0]], [[0.1]], 10, 1)


class TestPackItem:
    def test_intensity_classification(self):
        assert PackItem(0, 0.5, 0.3).size_intensive
        assert not PackItem(0, 0.5, 0.3).load_intensive
        assert PackItem(0, 0.3, 0.5).load_intensive
        # Ties are size-intensive by the paper's definition (s_i >= l_i).
        assert PackItem(0, 0.4, 0.4).size_intensive

    def test_excess(self):
        assert PackItem(0, 0.7, 0.2).excess == pytest.approx(0.5)
        assert PackItem(0, 0.2, 0.7).excess == pytest.approx(0.5)


class TestRho:
    def test_rho_is_max_coordinate(self):
        items = [PackItem(0, 0.3, 0.1), PackItem(1, 0.2, 0.45)]
        assert rho_of(items) == pytest.approx(0.45)

    def test_rho_empty(self):
        assert rho_of([]) == 0.0
