"""Unit and statistical tests for arrival processes and request streams."""

import numpy as np
import pytest
from scipy import stats

from repro.errors import ConfigError
from repro.workload import (
    RequestStream,
    poisson_arrival_times,
    sample_file_ids,
    zipf_popularities,
)


class TestPoisson:
    def test_sorted_within_horizon(self, rng):
        times = poisson_arrival_times(5.0, 100.0, rng)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0
        assert times.max() < 100.0

    def test_count_statistics(self, rng):
        # N ~ Poisson(2500); check within 5 sigma.
        times = poisson_arrival_times(5.0, 500.0, rng)
        assert abs(len(times) - 2_500) < 5 * np.sqrt(2_500)

    def test_exponential_gaps(self, rng):
        # KS test of inter-arrival times against Exp(rate).
        times = poisson_arrival_times(2.0, 5_000.0, rng)
        gaps = np.diff(times)
        _, p_value = stats.kstest(gaps, "expon", args=(0, 1 / 2.0))
        assert p_value > 1e-4

    def test_zero_rate(self, rng):
        assert len(poisson_arrival_times(0.0, 100.0, rng)) == 0

    def test_invalid_args(self, rng):
        with pytest.raises(ConfigError):
            poisson_arrival_times(-1.0, 10.0, rng)
        with pytest.raises(ConfigError):
            poisson_arrival_times(1.0, -10.0, rng)


class TestSampleIds:
    def test_respects_distribution(self, rng):
        p = zipf_popularities(100)
        ids = sample_file_ids(p, 20_000, rng)
        counts = np.bincount(ids, minlength=100)
        # Chi-squared against the expected distribution.
        expected = p * 20_000
        mask = expected > 5
        chi2 = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
        dof = int(mask.sum()) - 1
        assert chi2 < stats.chi2.ppf(0.9999, dof)

    def test_invalid_count(self, rng):
        with pytest.raises(ConfigError):
            sample_file_ids(np.array([1.0]), -1, rng)


class TestRequestStream:
    def test_poisson_constructor(self, rng):
        p = zipf_popularities(50)
        stream = RequestStream.poisson(p, rate=3.0, duration=200.0, rng=rng)
        assert stream.duration == 200.0
        assert stream.file_ids.max() < 50
        assert abs(stream.mean_rate - 3.0) < 1.0

    def test_iteration_yields_tuples(self):
        stream = RequestStream(
            times=np.array([1.0, 2.0]),
            file_ids=np.array([5, 7]),
            duration=10.0,
        )
        assert list(stream) == [(1.0, 5), (2.0, 7)]
        assert len(stream) == 2

    def test_unsorted_times_rejected(self):
        with pytest.raises(ConfigError):
            RequestStream(
                times=np.array([2.0, 1.0]),
                file_ids=np.array([0, 1]),
                duration=10.0,
            )

    def test_negative_times_rejected(self):
        with pytest.raises(ConfigError):
            RequestStream(
                times=np.array([-1.0]), file_ids=np.array([0]), duration=10.0
            )

    def test_duration_must_cover_arrivals(self):
        with pytest.raises(ConfigError):
            RequestStream(
                times=np.array([5.0]), file_ids=np.array([0]), duration=3.0
            )

    def test_nan_time_rejected(self):
        # NaN fails every comparison, so ``diff < 0`` alone let it through.
        with pytest.raises(ConfigError, match="finite"):
            RequestStream(
                times=np.array([1.0, np.nan, 0.5, 3.0]),
                file_ids=np.arange(4),
                duration=10.0,
            )

    def test_infinite_time_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            RequestStream(
                times=np.array([1.0, np.inf]),
                file_ids=np.arange(2),
                duration=np.inf,
            )

    @pytest.mark.parametrize("duration", [np.nan, np.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ConfigError, match="duration"):
            RequestStream(
                times=np.array([1.0]), file_ids=np.array([0]),
                duration=duration,
            )

    def test_merge_sorts(self):
        a = RequestStream(
            times=np.array([1.0, 5.0]), file_ids=np.array([0, 1]), duration=10.0
        )
        b = RequestStream(
            times=np.array([3.0]), file_ids=np.array([2]), duration=8.0
        )
        merged = RequestStream.merge([a, b])
        assert merged.times.tolist() == [1.0, 3.0, 5.0]
        assert merged.file_ids.tolist() == [0, 2, 1]
        assert merged.duration == 10.0

    def test_merge_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            RequestStream.merge([])

    def test_merge_clears_thinning_factor(self):
        # Regression: merge used to drop the field implicitly; it is now an
        # explicit, documented decision — a merged stream is not a thinning
        # of any single parent, even when every input carries a factor.
        base = RequestStream(
            times=np.arange(10, dtype=float),
            file_ids=np.arange(10),
            duration=10.0,
        )
        a = base.scaled(0.5)
        b = base.scaled(0.5)
        assert a.thinning_factor == pytest.approx(0.5)
        merged = RequestStream.merge([a, b])
        assert merged.thinning_factor is None

    def test_mean_rate_zero_for_empty_streams(self):
        # Regression: a zero-duration empty stream returned NaN, which
        # poisoned downstream allocate(rate=...) calls.
        empty_zero = RequestStream(
            times=np.array([]), file_ids=np.array([]), duration=0.0
        )
        assert empty_zero.mean_rate == 0.0
        empty_long = RequestStream(
            times=np.array([]), file_ids=np.array([]), duration=10.0
        )
        assert empty_long.mean_rate == 0.0
        merged = RequestStream.merge([empty_zero, empty_zero])
        assert merged.mean_rate == 0.0

    def test_mean_rate_nan_only_for_nonempty_zero_duration(self):
        stream = RequestStream(
            times=np.array([0.0]), file_ids=np.array([0]), duration=0.0
        )
        assert np.isnan(stream.mean_rate)

    def test_scaled_thinning(self):
        stream = RequestStream(
            times=np.arange(100, dtype=float),
            file_ids=np.arange(100),
            duration=100.0,
        )
        thin = stream.scaled(0.25)
        assert len(thin) == 25
        assert thin.duration == 100.0
        assert thin.times.tolist() == list(range(0, 100, 4))

    def test_scaled_arbitrary_factor_honored_exactly(self):
        # Regression: step = round(1/factor) turned factor=0.4 into a 0.5
        # subsample; index-based thinning keeps exactly 40 of 100.
        stream = RequestStream(
            times=np.arange(100, dtype=float),
            file_ids=np.arange(100),
            duration=100.0,
        )
        thin = stream.scaled(0.4)
        assert len(thin) == 40
        assert thin.thinning_factor == pytest.approx(0.4)
        assert np.all(np.diff(thin.times) > 0)  # still strictly ordered
        assert thin.duration == 100.0

    @pytest.mark.parametrize("factor", [0.1, 0.25, 1 / 3, 0.4, 0.7, 0.9])
    def test_scaled_count_matches_factor(self, factor):
        stream = RequestStream(
            times=np.arange(1_000, dtype=float),
            file_ids=np.arange(1_000),
            duration=1_000.0,
        )
        thin = stream.scaled(factor)
        assert len(thin) == round(1_000 * factor)
        assert thin.thinning_factor == pytest.approx(len(thin) / 1_000)

    def test_scaled_factor_keeping_zero_requests_rejected(self):
        stream = RequestStream(
            times=np.array([1.0]), file_ids=np.array([0]), duration=2.0
        )
        with pytest.raises(ConfigError, match="zero"):
            stream.scaled(0.3)

    def test_scaled_identity_returns_defensive_copy(self):
        # Regression: scaled(1.0) used to return self, so mutating the
        # "scaled" stream corrupted the parent's arrays.
        stream = RequestStream(
            times=np.array([1.0, 2.0]), file_ids=np.array([0, 1]), duration=4.0
        )
        full = stream.scaled(1.0)
        assert full is not stream
        assert full.times is not stream.times
        assert full.file_ids is not stream.file_ids
        assert full.times.tolist() == stream.times.tolist()
        assert full.file_ids.tolist() == stream.file_ids.tolist()
        assert full.duration == stream.duration
        assert full.thinning_factor == 1.0
        full.times[0] = 99.0  # must not reach the parent
        assert stream.times[0] == 1.0

    def test_scaled_empty_stream_returns_copy(self):
        stream = RequestStream(
            times=np.array([]), file_ids=np.array([]), duration=5.0
        )
        thin = stream.scaled(0.5)
        assert thin is not stream
        assert len(thin) == 0
        assert thin.duration == 5.0

    def test_scaled_invalid(self):
        stream = RequestStream(
            times=np.array([1.0]), file_ids=np.array([0]), duration=2.0
        )
        with pytest.raises(ConfigError):
            stream.scaled(0.0)

    def test_empty_stream(self):
        stream = RequestStream(
            times=np.array([]), file_ids=np.array([]), duration=10.0
        )
        assert len(stream) == 0
        assert list(stream) == []
