"""The compiled span binner against its NumPy oracle, bit for bit.

:func:`repro.native.bin_spans` bins a controlled fast-kernel run's
logged state spans into the control-interval windows (the per-interval
power trace in ``extra["dpm"]``).  It must reproduce
``bin_spans_oracle.bin_spans`` — the NumPy scatter-adds it replaced —
byte for byte, or the power traces of every controlled run would move.
The draws put span ends on edges, before the first and past the last
edge, make spans empty, reversed or NaN, and vary the window and disk
counts from one up to thousands of windows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bin_spans_oracle import bin_spans as oracle
from repro.native import bin_spans


def _assert_twins(disks, starts, ends, edges, num_disks):
    got = bin_spans(disks, starts, ends, edges, num_disks)
    want = oracle(disks, starts, ends, edges, num_disks)
    assert got.shape == want.shape
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@st.composite
def _cases(draw, max_windows=40):
    # Few windows and disks as often as many, so that one cell gathers
    # spans inside it and partial windows of crossing spans alike: the
    # order of those additions is what bit-equality pins.
    k = draw(st.one_of(st.integers(1, 4), st.integers(1, max_windows)))
    num_disks = draw(st.one_of(st.integers(1, 2), st.integers(1, 6)))
    if draw(st.booleans()):
        lo = draw(st.floats(-1e3, 1e3, allow_nan=False))
        width = draw(st.floats(1e-3, 1e3))
        edges = np.linspace(lo, lo + width * k, k + 1)
    else:
        raw = draw(
            st.lists(
                st.one_of(
                    st.floats(-1e4, 1e4, allow_nan=False),
                    st.sampled_from([-0.0, 0.0, 1.0, 5e-324]),
                ),
                min_size=k + 1, max_size=k + 1,
            )
        )
        edges = np.sort(np.array(raw))  # ties make zero-width windows
    n = draw(st.integers(0, 300))
    points = st.one_of(
        st.sampled_from(edges.tolist()),  # exactly on an edge
        st.floats(float(edges[0]) - 50.0, float(edges[-1]) + 50.0,
                  allow_nan=False),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    starts = np.array(draw(st.lists(points, min_size=n, max_size=n)), float)
    lengths = st.one_of(
        st.just(0.0),  # zero-length
        st.floats(-20.0, 0.0),  # reversed
        st.floats(0.0, 2.0 * float(edges[-1] - edges[0]) + 1.0),
    )
    ends = starts + np.array(
        draw(st.lists(lengths, min_size=n, max_size=n)), float
    )
    # Some ends land exactly on edges too, whatever their start.
    on_edge = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    picks = draw(
        st.lists(st.integers(0, k), min_size=n, max_size=n)
    )
    for m, (flag, j) in enumerate(zip(on_edge, picks)):
        if flag:
            ends[m] = edges[j]
    disks = np.array(
        draw(st.lists(st.integers(0, num_disks - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return disks, starts, ends, edges, num_disks


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_matches_oracle(case):
    _assert_twins(*case)


@settings(max_examples=30, deadline=None)
@given(_cases(max_windows=3), st.integers(1, 2))
def test_one_window_one_disk(case, k):
    _, starts, ends, edges, _ = case
    edges = edges[: k + 1] if edges.size > k else edges
    _assert_twins(np.zeros(starts.size, np.int64), starts, ends, edges, 1)


@pytest.mark.parametrize("seed", range(4))
def test_many_windows(seed):
    """K >= 1,000 windows: long spans cover hundreds of windows through
    the cover counts, short ones stay inside one."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1_000, 3_000))
    edges = np.linspace(0.0, 40_000.0, k + 1)
    if seed % 2:
        edges[-1] = 39_999.5  # a short last window, like a horizon cut
    n = 5_000
    starts = rng.uniform(-100.0, 40_100.0, n)
    ends = starts + np.where(
        rng.random(n) < 0.2,
        rng.uniform(0.0, 20_000.0, n),
        rng.exponential(5.0, n),
    )
    starts[::97] = edges[rng.integers(0, k + 1, starts[::97].size)]
    ends[::89] = edges[rng.integers(0, k + 1, ends[::89].size)]
    disks = rng.integers(0, 100, n)
    _assert_twins(disks, starts, ends, edges, 100)


@pytest.mark.parametrize("seed", range(4))
def test_dense_cells(seed):
    """Thousands of spans on two disks over five windows: every cell
    sums spans inside it, first and last partial windows and covers."""
    rng = np.random.default_rng(seed)
    edges = np.cumsum(np.r_[0.0, rng.uniform(1.0, 10.0, 5)])
    n = 3_000
    starts = rng.uniform(-1.0, edges[-1] + 1.0, n)
    ends = starts + rng.exponential(edges[-1] / 8.0, n)
    _assert_twins(rng.integers(0, 2, n), starts, ends, edges, 2)


def test_unsorted_disks_and_non_contiguous_columns():
    rng = np.random.default_rng(3)
    edges = np.linspace(0.0, 100.0, 21)
    block = np.empty((3, 2 * 400))
    block[0] = rng.uniform(-5.0, 105.0, block.shape[1])
    block[1] = block[0] + rng.exponential(8.0, block.shape[1])
    block[2] = rng.integers(0, 7, block.shape[1])
    starts, ends, d_float = block[0, ::2], block[1, ::2], block[2, ::-2]
    assert not starts.flags.c_contiguous
    disks = d_float.astype(np.int32)  # another dtype, reversed order
    strided_edges = np.repeat(edges, 2)[::2]
    assert not strided_edges.flags.c_contiguous
    _assert_twins(disks, starts, ends, strided_edges, 7)
    _assert_twins(disks.tolist(), starts.tolist(), ends.tolist(),
                  edges.tolist(), 7)


def test_dropped_spans_may_name_any_disk():
    """A span that bins nothing (empty, reversed, NaN or outside the
    windows) is dropped before its disk is read: the fast kernel passes
    cache hits as empty spans on disk -1."""
    edges = [0.0, 10.0, 20.0]
    disks = np.array([-1, 9, 0, 5, -3], dtype=np.int64)
    starts = np.array([3.0, 7.0, 2.0, math.nan, 25.0])
    ends = np.array([3.0, 1.0, 15.0, 4.0, 30.0])
    _assert_twins(disks, starts, ends, edges, 1)


@pytest.mark.parametrize("disk", [-1, 2])
def test_binned_span_outside_pool_raises(disk):
    with pytest.raises(ValueError, match="outside"):
        bin_spans([0, disk], [1.0, 2.0], [3.0, 4.0], [0.0, 10.0], 2)


@pytest.mark.parametrize(
    "edges", [[0.0, 10.0, 5.0], [0.0, math.nan], [0.0, math.inf]]
)
def test_edges_must_be_finite_and_ascending(edges):
    with pytest.raises(ValueError, match="finite and ascending"):
        bin_spans([0], [1.0], [3.0], edges, 1)


def test_columns_of_different_lengths_raise():
    with pytest.raises(ValueError, match="equal-length"):
        bin_spans([0, 1], [1.0], [3.0], [0.0, 10.0], 2)


@pytest.mark.parametrize("edges", [[], [5.0]])
def test_no_windows(edges):
    _assert_twins([0], [1.0], [3.0], edges, 2)
