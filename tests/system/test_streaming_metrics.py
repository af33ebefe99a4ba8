"""Streaming response accumulators: partition invariance, P² accuracy,
epoch merging, and the streaming-aware SimulationResult properties."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.system.metrics import (
    ResponseAccumulator,
    ResponseStats,
    SimulationResult,
)


def _partition(values, cuts):
    """Split ``values`` at the (sorted, deduplicated) cut indices."""
    edges = sorted({0, *cuts, len(values)})
    return [values[a:b] for a, b in zip(edges[:-1], edges[1:])]


def _fold(parts):
    acc = ResponseAccumulator()
    for part in parts:
        acc.add(part)
    return acc.result()


class TestPartitionInvariance:
    """The exactness contract: any partition of the same value sequence
    folds to the *bit-identical* ResponseStats."""

    @given(
        values=st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=0, max_size=400
        ),
        cuts=st.lists(st.integers(0, 400), max_size=8),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_partition_is_bit_identical(self, values, cuts, data):
        arr = np.asarray(values, dtype=float)
        mono = _fold([arr])
        split = _fold(_partition(arr, [c for c in cuts if c <= arr.size]))
        assert split == mono  # frozen dataclass: field-wise equality

    def test_partition_invariance_across_p2_warmup(self):
        """Chunk boundaries straddling the warmup→stride switchover must
        not change which observations feed the P² estimators."""
        rng = np.random.default_rng(0)
        n = ResponseAccumulator.P2_WARMUP + 4096
        values = rng.exponential(5.0, size=n)
        mono = _fold([values])
        for cut in (
            ResponseAccumulator.P2_WARMUP - 3,
            ResponseAccumulator.P2_WARMUP,
            ResponseAccumulator.P2_WARMUP + 5,
        ):
            split = _fold([values[:cut], values[cut:]])
            assert split == mono

    def test_warmup_boundary_exhaustive_with_small_constants(self, monkeypatch):
        """Shrink the warmup/stride constants and sweep *every* cut and
        several multi-part partitions around the switchover, so the
        stride-offset arithmetic in ``ResponseAccumulator.add`` (the
        ``(first - start) + (-(first - P2_WARMUP)) % P2_STRIDE`` formula)
        is exercised at every possible chunk/warmup phase — including
        chunks that end exactly on the boundary, straddle it, or start
        mid-stride — without paying for 65k values per case."""
        monkeypatch.setattr(ResponseAccumulator, "P2_WARMUP", 16)
        monkeypatch.setattr(ResponseAccumulator, "P2_STRIDE", 3)
        rng = np.random.default_rng(42)
        values = rng.exponential(5.0, size=64)
        mono = _fold([values])
        assert mono.p2_observations == 16 + len(range(16, 64, 3))
        for cut in range(values.size + 1):
            split = _fold([values[:cut], values[cut:]])
            assert split == mono, f"cut={cut}"
        for cuts in ([5, 16, 17], [15, 16], [16, 19, 22], [1] * 3 + [30]):
            split = _fold(_partition(values, cuts))
            assert split == mono, f"cuts={cuts}"
        # Single-value chunks: every add() call lands on a different
        # warmup/stride phase.
        split = _fold([values[i : i + 1] for i in range(values.size)])
        assert split == mono

    def test_mean_is_exactly_the_serial_mean(self):
        """total is the strict left-to-right sum (what the scalar
        ``np.add.at`` carry computes), identically for any chunking."""
        rng = np.random.default_rng(7)
        values = rng.exponential(3.0, size=10_000)
        serial = 0.0
        for v in values:
            serial += float(v)
        for k in (1, 13, 997, 10**9):
            parts = [values[i : i + k] for i in range(0, values.size, k)]
            stats = _fold(parts)
            assert stats.total == serial


class TestNonFiniteResponses:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_chunk_with_non_finite_response_raises(self, bad):
        """A NaN used to slip through as min=inf, max=-inf, mean nan."""
        acc = ResponseAccumulator()
        acc.add(np.array([1.0, 2.0]))
        before = acc.result()
        with pytest.raises(SimulationError, match="finite"):
            acc.add(np.array([3.0, bad, 4.0]))
        # The rejected chunk left the accumulator untouched.
        assert acc.result() == before
        assert (before.count, before.min, before.max) == (2, 1.0, 2.0)


class TestP2Accuracy:
    @pytest.mark.parametrize("dist", ["exponential", "lognormal", "uniform"])
    def test_percentiles_near_numpy(self, dist):
        rng = np.random.default_rng(42)
        values = getattr(rng, dist)(size=50_000)
        stats = _fold([values])
        for q, est in ((50, stats.p50), (95, stats.p95), (99, stats.p99)):
            exact = float(np.percentile(values, q))
            scale = float(np.percentile(values, 99)) or 1.0
            assert abs(est - exact) < 0.05 * scale, (q, est, exact)

    def test_stride_thinning_tracks_the_tail(self):
        """Past warmup only every 8th response feeds P² — the estimate must
        still track a shifted distribution."""
        rng = np.random.default_rng(3)
        head = rng.exponential(1.0, size=ResponseAccumulator.P2_WARMUP)
        tail = rng.exponential(10.0, size=500_000)
        stats = _fold([head, tail])
        merged = np.concatenate([head, tail])
        exact = float(np.percentile(merged, 95))
        assert abs(stats.p95 - exact) < 0.15 * exact
        expected_obs = ResponseAccumulator.P2_WARMUP + tail.size // 8
        assert abs(stats.p2_observations - expected_obs) <= 1


class TestResponseStatsMerge:
    def test_exact_fields_merge(self):
        a = _fold([np.array([1.0, 5.0, 3.0])])
        b = _fold([np.array([0.5, 9.0])])
        with pytest.warns(RuntimeWarning, match="percentile"):
            merged = ResponseStats.merge([a, b])
        assert merged.count == 5
        assert merged.min == 0.5
        assert merged.max == 9.0
        assert merged.total == pytest.approx(a.total + b.total)
        # P² states cannot be combined post-hoc.
        assert math.isnan(merged.p95)
        assert merged.percentiles_lost

    def test_single_live_part_passes_through(self):
        a = _fold([np.array([1.0, 2.0])])
        empty = _fold([])
        assert ResponseStats.merge([a, empty, None]) is a

    def test_all_empty(self):
        merged = ResponseStats.merge([_fold([]), None])
        assert merged.count == 0
        assert math.isnan(merged.min) and math.isnan(merged.max)
        assert math.isnan(merged.mean)

    def test_lossy_merge_warns_once_per_chain(self):
        """The first percentile-dropping merge warns; re-merging an
        already-lossy result (pairwise epoch folds) stays silent."""
        a = _fold([np.array([1.0, 2.0])])
        b = _fold([np.array([3.0, 4.0])])
        c = _fold([np.array([5.0, 6.0])])
        with pytest.warns(RuntimeWarning, match="cannot combine"):
            first = ResponseStats.merge([a, b])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chained = ResponseStats.merge([first, c])
        assert chained.count == 6
        assert chained.percentiles_lost
        assert math.isnan(chained.p95)

    def test_single_part_merge_does_not_warn(self):
        a = _fold([np.array([1.0, 2.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ResponseStats.merge([a]) is a


def _result(response_times=None, response_stats=None, completions=0):
    return SimulationResult(
        algorithm="t", duration=10.0, num_disks=1, energy=1.0,
        energy_per_disk=np.ones(1), state_durations={},
        response_times=response_times, arrivals=completions,
        completions=completions, spinups=0, spindowns=0,
        always_on_energy=1.0, response_stats=response_stats,
    )


class TestStreamingResult:
    def test_streaming_properties_answer_from_stats(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        stats = _fold([values])
        r = _result(response_stats=stats, completions=4)
        assert r.mean_response == values.mean()
        assert r.max_response == 4.0
        assert r.median_response == stats.p50
        assert r.p95_response == stats.p95

    def test_untracked_percentile_warns_nan(self):
        stats = _fold([np.array([1.0, 2.0])])
        r = _result(response_stats=stats, completions=2)
        with pytest.warns(RuntimeWarning, match="p50/p95/p99"):
            assert math.isnan(r.response_percentile(90.0))

    def test_zero_completion_streaming_warns_nan(self):
        r = _result(response_stats=_fold([]), completions=0)
        with pytest.warns(RuntimeWarning, match="no completed requests"):
            assert math.isnan(r.mean_response)
        with pytest.warns(RuntimeWarning, match="no completed requests"):
            assert math.isnan(r.p95_response)
        assert "(no completed requests)" in r.summary()

    def test_full_mode_unaffected(self):
        r = _result(response_times=np.array([2.0, 4.0]), completions=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert r.mean_response == 3.0
            assert r.p95_response == pytest.approx(3.9)
