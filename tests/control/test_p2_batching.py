"""``P2Quantile`` batching contract: bit-equal to the textbook recursion.

The controller and the streaming results layer feed P² in batches of
whatever size an interval or chunk happens to have, while both engines
must agree on every estimate.  ``add_many`` therefore has to reproduce
the one-observation-at-a-time recursion (``p2_oracle.TextbookP2``) bit
for bit — marker heights, positions, desired positions, count and value —
for every split of a stream into batches.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p2_oracle import TextbookP2
from repro.control import P2Quantile
from repro.errors import SimulationError

finite = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
streams = st.one_of(
    st.lists(finite, max_size=300),
    # Ties: a handful of distinct values, so observations land exactly on
    # marker heights.
    st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0, 7.0, 1e6]), max_size=300),
    st.builds(lambda v, n: [v] * n, finite, st.integers(0, 300)),
)
percentiles = st.one_of(
    st.sampled_from([50.0, 95.0, 99.0]),
    st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
)


def _bits(xs):
    return None if xs is None else [float(x).hex() for x in xs]


def assert_same_state(est: P2Quantile, oracle: TextbookP2) -> None:
    assert est.count == oracle.count
    assert _bits(est._q) == _bits(oracle._q)
    assert est._n == oracle._n
    assert _bits(est._np) == _bits(oracle._np)
    if math.isnan(oracle.value):
        assert math.isnan(est.value)
    else:
        assert float(est.value).hex() == float(oracle.value).hex()


def _split(values, cuts):
    edges = sorted({0, len(values), *(c for c in cuts if c <= len(values))})
    return [values[a:b] for a, b in zip(edges[:-1], edges[1:])]


def _oracle(pct, values):
    oracle = TextbookP2(pct)
    for x in values:
        oracle.add(x)
    return oracle


@given(
    values=streams,
    pct=percentiles,
    cuts=st.lists(st.integers(0, 300), max_size=10),
    as_array=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_add_many_over_any_split_matches_textbook(values, pct, cuts, as_array):
    est = P2Quantile(pct)
    for part in _split(values, cuts):
        est.add_many(np.asarray(part, dtype=float) if as_array else part)
    assert_same_state(est, _oracle(pct, values))


@given(values=streams, pct=percentiles)
@settings(max_examples=100, deadline=None)
def test_add_one_at_a_time_matches_textbook(values, pct):
    est = P2Quantile(pct)
    oracle = TextbookP2(pct)
    for x in values:
        est.add(x)
        oracle.add(x)
        assert_same_state(est, oracle)


@pytest.mark.parametrize("pct", [50.0, 95.0, 99.0, 37.5])
def test_long_stream_every_split_kind(pct):
    """Thousands of marker adjustments in both directions (a level shift
    mid-stream), split into warm-up-straddling, single-element and large
    batches."""
    rng = np.random.default_rng(int(pct * 10))
    values = np.concatenate(
        [rng.exponential(10.0, 6_000), rng.exponential(1.0, 6_000)]
    )
    oracle = _oracle(pct, values.tolist())
    cuts = [2, 3, 5, 6, *range(7, 40), *rng.integers(40, values.size, 50)]
    for parts in (
        [values],
        _split(values, cuts),
        [values[:4], values[4:5], values[5:]],
    ):
        est = P2Quantile(pct)
        for part in parts:
            est.add_many(part)
        assert_same_state(est, oracle)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_observation_raises(bad):
    """A NaN used to count as below every marker and silently drag the
    estimate (p95 of 1..6 then 50 NaNs read 4.0)."""
    est = P2Quantile(95.0)
    est.add_many([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    before = (est.count, list(est._q), list(est._n), list(est._np))
    with pytest.raises(SimulationError, match="finite"):
        est.add_many([7.0] + [bad] * 50)
    with pytest.raises(SimulationError, match="finite"):
        est.add(bad)
    # Rejected batches leave the estimator untouched.
    assert (est.count, est._q, est._n, est._np) == before
    warm = P2Quantile(50.0)
    with pytest.raises(SimulationError, match="finite"):
        warm.add_many([1.0, bad])
    assert warm.count == 0 and math.isnan(warm.value)


def _assert_markers_sorted(est: P2Quantile) -> None:
    if est._q is not None:
        q0, q1, q2, q3, q4 = est._q
        assert q0 <= q1 <= q2 <= q3 <= q4, est._q


@pytest.mark.parametrize("pct", [50.0, 95.0, 99.0])
@pytest.mark.parametrize("levels", [3, 12, 200])
def test_long_tie_heavy_streams_keep_markers_sorted(pct, levels):
    """``add_many`` classifies each observation from the middle marker
    out, which lands it in the textbook cell only while the heights stay
    sorted.  Long streams drawn from a few distinct values put
    observations exactly on marker heights again and again."""
    rng = np.random.default_rng(int(pct) * 1_000 + levels)
    values = rng.choice(rng.exponential(5.0, levels), 8_000).tolist()
    est = P2Quantile(pct)
    start = 0
    for stop in sorted({*rng.integers(1, len(values), 60).tolist(),
                        len(values)}):
        est.add_many(values[start:stop])
        start = stop
        _assert_markers_sorted(est)
    assert_same_state(est, _oracle(pct, values))
