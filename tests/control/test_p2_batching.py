"""``P2Quantile`` batching contract: bit-equal to the textbook recursion.

The controller and the streaming results layer feed P² in batches of
whatever size an interval or chunk happens to have, while both engines
must agree on every estimate.  ``add_many`` therefore has to reproduce
the one-observation-at-a-time recursion (``p2_oracle.TextbookP2``) bit
for bit — marker heights, positions, desired positions, count and value —
for every split of a stream into batches.  The recursion runs only in the
compiled library (:func:`repro.native.p2_fold`), so every case here holds
that fold to the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.native as native
from p2_oracle import TextbookP2
from repro.control import P2Quantile
from repro.errors import ConfigError, SimulationError

finite = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
streams = st.one_of(
    st.lists(finite, max_size=300),
    # Ties: a handful of distinct values, so observations land exactly on
    # marker heights.
    st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0, 7.0, 1e6]), max_size=300),
    st.builds(lambda v, n: [v] * n, finite, st.integers(0, 300)),
)
#: Signed zeros, subnormals, ties among them, and spreads of 600 decades
#: (small enough that no marker step overflows, so the textbook recursion
#: still keeps the heights sorted).
edge_streams = st.one_of(
    # Only signed zeros: which zero a marker holds is part of its bits.
    st.lists(st.sampled_from([-0.0, 0.0]), max_size=40),
    st.lists(
        st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2e-308]),
        max_size=300,
    ),
    st.lists(
        st.floats(-1e-300, 1e-300, allow_nan=False, allow_subnormal=True),
        max_size=300,
    ),
    st.lists(
        st.one_of(
            st.floats(-1e300, 1e300, allow_nan=False),
            st.sampled_from([-0.0, 0.0, 5e-324, -1e300, 1e300]),
        ),
        max_size=300,
    ),
)
percentiles = st.one_of(
    st.sampled_from([50.0, 95.0, 99.0]),
    st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
)


def _bits(xs):
    return None if xs is None else [float(x).hex() for x in xs]


def _markers(est: P2Quantile):
    """``(heights, positions, desired positions)`` as lists, or ``None``s
    before five observations."""
    m = est._markers
    if m is None:
        return None, None, None
    return m[0:5].tolist(), m[5:10].tolist(), m[10:15].tolist()


def assert_same_state(est: P2Quantile, oracle: TextbookP2) -> None:
    q, n, npos = _markers(est)
    assert est.count == oracle.count
    assert _bits(q) == _bits(oracle._q)
    assert n == oracle._n
    assert _bits(npos) == _bits(oracle._np)
    assert _bits(est._initial) == _bits(oracle._initial)
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
    values=st.one_of(streams, edge_streams),
    pct=percentiles,
    cuts=st.lists(st.integers(0, 300), max_size=10),
    as_array=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_add_many_over_any_split_matches_textbook(values, pct, cuts, as_array):
    oracle = _oracle(pct, values)
    est = P2Quantile(pct)
    for part in _split(values, cuts):
        est.add_many(np.asarray(part, dtype=float) if as_array else part)
    assert_same_state(est, oracle)


@given(values=st.one_of(streams, edge_streams), pct=percentiles)
@settings(max_examples=100, deadline=None)
def test_add_one_at_a_time_matches_textbook(values, pct):
    est = P2Quantile(pct)
    oracle = TextbookP2(pct)
    for x in values:
        est.add(x)
        oracle.add(x)
        assert_same_state(est, oracle)


def _sorted_prefix(pct, values):
    """How many leading observations keep the oracle's heights finite and
    sorted after every one of them.  Past that, the textbook scan from
    ``q0`` up and the fold's middle-out classification may land an
    observation in different cells."""
    oracle = TextbookP2(pct)
    for i, x in enumerate(values):
        oracle.add(x)
        q = oracle._q
        if q is not None and not (
            all(math.isfinite(h) for h in q) and q == sorted(q)
        ):
            return i
    return len(values)


@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=300
    ),
    pct=percentiles,
    cuts=st.lists(st.integers(0, 300), max_size=10),
)
@settings(max_examples=200, deadline=None)
def test_compiled_fold_on_any_finite_floats_is_split_free_and_textbook(
    values, pct, cuts
):
    """Spreads up to the largest doubles overflow a marker step to inf or
    NaN.  The fold still gives the same bits for every split of the stream
    (NaN markers included), and the textbook's bits for as long as the
    textbook's heights stay finite and sorted."""
    states = []
    for parts in ([values], _split(values, cuts)):
        est = P2Quantile(pct)
        for part in parts:
            est.add_many(part)
        q, n, npos = _markers(est)
        states.append((est.count, _bits(q), _bits(n), _bits(npos)))
    assert states[0] == states[1]
    prefix = values[:_sorted_prefix(pct, values)]
    est = P2Quantile(pct)
    for part in _split(prefix, cuts):
        est.add_many(part)
    assert_same_state(est, _oracle(pct, prefix))


@pytest.mark.parametrize("pct", [50.0, 95.0, 99.0, 37.5])
def test_long_stream_every_split_kind(pct):
    """Thousands of marker adjustments in both directions (a level shift
    mid-stream), split into warm-up-straddling, single-element and large
    batches, and fed as strided and 2-D views."""
    rng = np.random.default_rng(int(pct * 10))
    values = np.concatenate(
        [rng.exponential(10.0, 6_000), rng.exponential(1.0, 6_000)]
    )
    cuts = [2, 3, 5, 6, *range(7, 40), *rng.integers(40, values.size, 50)]
    oracle = _oracle(pct, values.tolist())
    # The odd positions after the first 20, then the even ones.
    views = [values[:20].reshape(4, 5), values[21::2], values[20::2]]
    shuffled = _oracle(
        pct, np.concatenate([v.ravel() for v in views]).tolist()
    )
    for parts, expected in (
        ([values], oracle),
        (_split(values, cuts), oracle),
        ([values[:4], values[4:5], values[5:]], oracle),
        (views, shuffled),
    ):
        est = P2Quantile(pct)
        for part in parts:
            est.add_many(part)
        assert_same_state(est, expected)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_observation_raises(bad):
    """A NaN used to count as below every marker and silently drag the
    estimate (p95 of 1..6 then 50 NaNs read 4.0).  A rejected batch leaves
    the estimator untouched, before and after its markers exist."""
    est = P2Quantile(95.0)
    est.add_many([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    before = (est.count, _markers(est))
    with pytest.raises(SimulationError, match="finite"):
        est.add_many([7.0] + [bad] * 50)
    with pytest.raises(SimulationError, match="finite"):
        est.add(bad)
    assert (est.count, _markers(est)) == before
    warm = P2Quantile(50.0)
    warm.add_many([3.0, 1.0])
    with pytest.raises(SimulationError, match="finite"):
        warm.add_many([2.0, 4.0, 5.0, bad])
    assert warm.count == 2 and warm._initial == [1.0, 3.0]
    assert warm._markers is None and warm.value == 2.0
    cold = P2Quantile(50.0)
    with pytest.raises(SimulationError, match="finite"):
        cold.add_many([1.0, bad])
    assert cold.count == 0 and math.isnan(cold.value)


def _assert_markers_sorted(est: P2Quantile) -> None:
    q, _, _ = _markers(est)
    if q is not None:
        q0, q1, q2, q3, q4 = q
        assert q0 <= q1 <= q2 <= q3 <= q4, q


@pytest.mark.parametrize("pct", [50.0, 95.0, 99.0])
@pytest.mark.parametrize("levels", [3, 12, 200])
def test_long_tie_heavy_streams_keep_markers_sorted(pct, levels):
    """``add_many`` classifies each observation from the middle marker
    out, which lands it in the textbook cell only while the heights stay
    sorted.  Long streams drawn from a few distinct values put
    observations exactly on marker heights again and again."""
    rng = np.random.default_rng(int(pct) * 1_000 + levels)
    values = rng.choice(rng.exponential(5.0, levels), 8_000).tolist()
    stops = sorted({*rng.integers(1, len(values), 60).tolist(), len(values)})
    oracle = _oracle(pct, values)
    est = P2Quantile(pct)
    start = 0
    for stop in stops:
        est.add_many(values[start:stop])
        start = stop
        _assert_markers_sorted(est)
    assert_same_state(est, oracle)


def test_p2_fold_rejects_marker_arrays_it_cannot_write():
    xs = np.arange(3.0)
    dn = np.zeros(5)
    for markers in (np.zeros(14), np.zeros(15, dtype=np.float32),
                    np.zeros(30)[::2]):
        before = markers.copy()
        with pytest.raises(ValueError, match="p2_fold needs 15"):
            native.p2_fold(markers, dn, xs)
        assert np.array_equal(markers, before)
    with pytest.raises(ValueError, match="p2_fold needs 5"):
        native.p2_fold(np.zeros(15), np.zeros(4), xs)


def test_estimator_needs_the_compiled_library(monkeypatch):
    """Without the library nothing could fold the markers, so no estimator
    is made (one would count observations it never folded)."""
    monkeypatch.setattr(native, "_LIB", None)
    monkeypatch.setattr(native, "_REASON", "no C compiler")
    with pytest.raises(ConfigError, match="no C compiler"):
        P2Quantile(95.0)
