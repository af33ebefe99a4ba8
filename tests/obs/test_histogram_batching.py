"""``Histogram.observe_many`` contract: the scalar fold, batch by batch.

``observe_many`` buckets a batch with ``searchsorted`` + ``bincount`` and
continues the running total with a sequential ``cumsum``.  For every
split of a stream into batches it must reproduce the one-value-at-a-time
loop (``histogram_oracle.ScalarHistogram``): bucket counts, count, the
total to the bit, min and max — including values equal to a bucket
bound, which belong to that bound's bucket.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from histogram_oracle import ScalarHistogram
from repro.obs.metrics import DEFAULT_RESPONSE_BOUNDS, Histogram

BOUNDS = DEFAULT_RESPONSE_BOUNDS

values = st.one_of(
    st.floats(0.0, 1e3, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    # On the bucket bounds and just off them.
    st.sampled_from(BOUNDS),
    st.sampled_from(BOUNDS).map(lambda b: math.nextafter(b, math.inf)),
    st.sampled_from(BOUNDS).map(lambda b: math.nextafter(b, -math.inf)),
)


@st.composite
def split_streams(draw):
    stream = draw(st.lists(values, max_size=200))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=6)))
    edges = [0, *cuts, len(stream)]
    return stream, [stream[a:b] for a, b in zip(edges, edges[1:])]


def assert_same(hist: Histogram, oracle: ScalarHistogram) -> None:
    assert hist.counts == oracle.counts
    assert hist.count == oracle.count
    assert hist.total.hex() == oracle.total.hex()
    assert hist.min == oracle.min
    assert hist.max == oracle.max
    assert all(type(c) is int for c in hist.counts)
    assert type(hist.total) is float


@given(split_streams())
def test_batches_match_the_scalar_fold(case):
    stream, batches = case
    hist = Histogram("x")
    oracle = ScalarHistogram(BOUNDS)
    for batch in batches:
        hist.observe_many(np.asarray(batch, dtype=float))
    for value in stream:
        oracle.observe(value)
    assert_same(hist, oracle)


@given(st.lists(values, max_size=60))
def test_observe_is_a_batch_of_one(stream):
    hist = Histogram("x")
    oracle = ScalarHistogram(BOUNDS)
    for value in stream:
        hist.observe(value)
        oracle.observe(value)
    assert_same(hist, oracle)


def test_bound_values_land_in_their_bucket():
    hist = Histogram("x", bounds=(1.0, 10.0))
    hist.observe_many([1.0, 10.0, math.nextafter(10.0, math.inf)])
    assert hist.counts == [1, 1, 1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_raise_and_leave_the_histogram_alone(bad):
    hist = Histogram("response_s")
    hist.observe_many([0.5, 2.0])
    before = hist.snapshot()
    with pytest.raises(ValueError, match=r"'response_s'.*non-finite.*" + str(bad)):
        hist.observe_many([1.0, bad, math.nan])
    with pytest.raises(ValueError):
        hist.observe(bad)
    assert hist.snapshot() == before
