"""The compiled completion order against NumPy's stable argsort.

``repro.native.stable_order`` is the one routine that puts a fast-kernel
run's completions (and a scheduler's releases) in order: a counting sort
on a monotone bucket key, insertion inside small buckets and a merge sort
inside oversize ones.  Its permutation must be exactly
``np.argsort(x, kind="stable")``'s on any input, ties (first index first)
and NaN (last) included, and a cluster of values in one bucket must cost
O(m log m), not O(m^2).
"""

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.native import stable_order


def _check(x):
    x = np.asarray(x, dtype=float)
    got = stable_order(x)
    assert got.dtype == np.int64
    assert got.tolist() == np.argsort(x, kind="stable").tolist()
    return got


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=80))
def test_any_floats(values):
    _check(values)


@given(
    st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.25, 1e9]), max_size=300)
)
def test_heavy_ties(values):
    _check(values)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 3_000),
    spread=st.sampled_from([1e-300, 1e-12, 1.0, 60.0, 4e4, 1e300]),
    lo=st.sampled_from([0.0, -5.0, 1e6]),
)
def test_near_sorted_completions(seed, n, spread, lo):
    """Arrival-ordered completions: a rising arrival plus a response, the
    shape the kernel sorts, at spreads from subnormal to huge."""
    rng = np.random.default_rng(seed)
    arrivals = lo + np.sort(rng.random(n)) * spread
    _check(arrivals + rng.random(n) * spread / 50)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2_000),
    outliers=st.integers(1, 3),
)
def test_values_clustered_into_one_bucket(seed, n, outliers):
    """Nearly all values inside one bucket's width (with ties among them),
    a few far away: the oversize bucket takes the merge sort."""
    rng = np.random.default_rng(seed)
    cluster = np.round(rng.random(n) * 1e-9, 12)
    far = rng.random(outliers) * 1e3 + 1.0
    x = np.concatenate((cluster, far))
    _check(rng.permutation(x))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    latency=st.sampled_from([0.0, 0.25]),
)
def test_served_then_hits_tie_at_one_instant(seed, n, latency):
    """The full-mode fold: served completions, then cache hits, some at
    the very instants served requests complete.  At a tie every served
    completion comes before every hit."""
    rng = np.random.default_rng(seed)
    served = np.sort(rng.choice(np.arange(40) * 0.25, size=n))
    hits = rng.choice(np.concatenate((served, [latency])), size=n)
    got = _check(np.concatenate((served, hits)))
    x = np.concatenate((served, hits))[got]
    is_hit = got >= n
    tie = x[1:] == x[:-1]
    assert not (is_hit[:-1] & ~is_hit[1:] & tie).any()


@pytest.mark.parametrize("n", [0, 1, 2, 33, 1_000])
def test_all_equal_values(n):
    """``lo == hi``: one distinct value keeps index order."""
    assert _check(np.full(n, 7.5)).tolist() == list(range(n))


def test_empty_and_one_element():
    assert stable_order(np.empty(0)).size == 0
    assert stable_order(np.array([3.0])).tolist() == [0]
    assert stable_order(np.array([np.nan])).tolist() == [0]


def test_one_oversize_bucket_is_not_quadratic():
    """2x10^5 values packed into one bucket's width (n buckets span the
    values, and all but one value fall in the first): an insertion sort
    would take ~10^10 steps; the merge sort takes well under a second."""
    rng = np.random.default_rng(3)
    x = np.append(rng.random(200_000) * 1e-9, 1.0)
    t0 = time.perf_counter()
    got = stable_order(x)
    elapsed = time.perf_counter() - t0
    assert got.tolist() == np.argsort(x, kind="stable").tolist()
    assert elapsed < 0.5


def test_refuses_two_dimensional_input():
    with pytest.raises(ValueError, match="1-D"):
        stable_order(np.zeros((2, 2)))
