"""Unit tests for the file catalog."""

import numpy as np
import pytest

from repro.disk import ST3500630AS, ServiceModel
from repro.errors import ConfigError
from repro.units import GB
from repro.workload import FileCatalog


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            FileCatalog(sizes=np.ones(3), popularities=np.ones(2) / 2)

    def test_popularities_must_normalize(self):
        with pytest.raises(ConfigError):
            FileCatalog(sizes=np.ones(2), popularities=np.array([0.3, 0.3]))

    def test_negative_sizes_rejected(self):
        with pytest.raises(ConfigError):
            FileCatalog(
                sizes=np.array([-1.0, 1.0]),
                popularities=np.array([0.5, 0.5]),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sizes_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            FileCatalog(
                sizes=np.array([1e9, bad, 2e9]),
                popularities=np.array([0.5, 0.25, 0.25]),
            )

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            FileCatalog(sizes=np.array([]), popularities=np.array([]))


class TestFromZipf:
    def test_inverse_correlation(self):
        cat = FileCatalog.from_zipf(n=500, correlation="inverse")
        assert cat.size_popularity_correlation() < 0

    def test_direct_correlation(self):
        cat = FileCatalog.from_zipf(n=500, correlation="direct")
        assert cat.size_popularity_correlation() > 0

    def test_none_correlation_near_zero(self):
        cat = FileCatalog.from_zipf(n=5_000, correlation="none", rng=1)
        assert abs(cat.size_popularity_correlation()) < 0.1

    def test_none_correlation_deterministic_with_seed(self):
        a = FileCatalog.from_zipf(n=100, correlation="none", rng=7)
        b = FileCatalog.from_zipf(n=100, correlation="none", rng=7)
        assert np.array_equal(a.sizes, b.sizes)

    def test_unknown_correlation(self):
        with pytest.raises(ConfigError):
            FileCatalog.from_zipf(n=10, correlation="sideways")


class TestDerived:
    def test_totals(self, small_catalog):
        assert small_catalog.n == 200
        assert small_catalog.total_bytes == pytest.approx(
            small_catalog.sizes.sum()
        )
        assert small_catalog.mean_size == pytest.approx(
            small_catalog.sizes.mean()
        )

    def test_request_weighted_mean_below_unweighted(self, small_catalog):
        # Inverse correlation: popular files are small, so the weighted
        # mean is below the plain mean.
        assert (
            small_catalog.request_weighted_mean_size
            < small_catalog.mean_size
        )

    def test_loads_and_total_load(self, small_catalog):
        service = ServiceModel(ST3500630AS)
        loads = small_catalog.loads(2.0, service)
        assert loads.shape == (200,)
        assert small_catalog.total_load(2.0, service) == pytest.approx(
            loads.sum()
        )

    def test_min_disks_for_space(self, small_catalog):
        disks = small_catalog.min_disks_for_space(500 * GB)
        assert disks == int(np.ceil(small_catalog.total_bytes / (500 * GB)))
        with pytest.raises(ConfigError):
            small_catalog.min_disks_for_space(0)
