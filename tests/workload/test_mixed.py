"""Tests for the read/write mixed workload (paper §6 future work)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workload import (
    FileCatalog,
    MixedRequestStream,
    MixedWorkloadParams,
    generate_mixed_workload,
)


@pytest.fixture
def catalog():
    return FileCatalog.from_zipf(n=100, s_max=1e9)


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MixedWorkloadParams(write_fraction=1.5)
        with pytest.raises(ConfigError):
            MixedWorkloadParams(new_file_fraction=-0.1)
        with pytest.raises(ConfigError):
            MixedWorkloadParams(duration=0)


class TestGenerate:
    def test_write_fraction_approximate(self, catalog):
        _, stream = generate_mixed_workload(
            catalog,
            MixedWorkloadParams(
                write_fraction=0.3, arrival_rate=2.0, duration=2_000, seed=1
            ),
        )
        assert stream.write_fraction == pytest.approx(0.3, abs=0.05)

    def test_new_files_extend_catalog(self, catalog):
        extended, stream = generate_mixed_workload(
            catalog,
            MixedWorkloadParams(
                write_fraction=0.5, new_file_fraction=1.0,
                arrival_rate=1.0, duration=1_000, seed=2,
            ),
        )
        n_new = extended.n - catalog.n
        assert n_new > 0
        # New file ids appear exactly once, as writes.
        new_ids = stream.file_ids[stream.file_ids >= catalog.n]
        assert len(np.unique(new_ids)) == len(new_ids) == n_new
        assert extended.popularities.sum() == pytest.approx(1.0)

    def test_zero_writes_keeps_catalog(self, catalog):
        extended, stream = generate_mixed_workload(
            catalog,
            MixedWorkloadParams(write_fraction=0.0, seed=3),
        )
        assert extended is catalog
        assert stream.write_fraction == 0.0

    def test_reads_only_projection(self, catalog):
        _, stream = generate_mixed_workload(
            catalog,
            MixedWorkloadParams(write_fraction=0.4, seed=4),
        )
        reads = stream.reads_only()
        assert len(reads) == int(np.sum(stream.kinds == "read"))

    def test_iteration_yields_triples(self, catalog):
        _, stream = generate_mixed_workload(
            catalog, MixedWorkloadParams(seed=5, duration=500)
        )
        t, fid, kind = next(iter(stream))
        assert kind in ("read", "write")

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ConfigError):
            MixedRequestStream(
                times=np.array([1.0]),
                file_ids=np.array([0, 1]),
                kinds=np.array(["read"]),
                duration=2.0,
            )


class TestEndToEnd:
    def test_mixed_stream_through_storage_system(self, catalog):
        from repro.system import StorageConfig, StorageSystem, allocate

        extended, stream = generate_mixed_workload(
            catalog,
            MixedWorkloadParams(
                write_fraction=0.3, new_file_fraction=0.5,
                arrival_rate=0.5, duration=1_000, seed=6,
            ),
        )
        cfg = StorageConfig(num_disks=10, load_constraint=0.8)
        alloc = allocate(catalog, "pack", cfg, 0.5)
        mapping = np.full(extended.n, -1, dtype=np.int64)
        mapping[: catalog.n] = alloc.mapping(catalog.n)
        system = StorageSystem(extended, mapping, cfg)
        result = system.run(stream, duration=stream.duration + 100.0)
        assert result.arrivals == len(stream)
        assert result.completions == result.arrivals
        assert system.dispatcher.write_count == int(
            np.sum(stream.kinds == "write")
        )
        # All new files got allocated somewhere on write.
        assert np.all(system.dispatcher.mapping >= 0) or np.all(
            system.dispatcher.mapping[stream.file_ids] >= 0
        )


class TestStreamValidation:
    """The same arrival-time checks as ``RequestStream``."""

    def make(self, times, duration=10.0):
        n = len(times)
        return MixedRequestStream(
            times=np.asarray(times, dtype=float),
            file_ids=np.arange(n),
            kinds=np.array(["read"] * n, dtype=object),
            duration=duration,
        )

    def test_valid_stream_accepted(self):
        assert len(self.make([0.0, 1.0, 1.0, 3.0])) == 4

    def test_nan_time_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            self.make([1.0, np.nan, 0.5, 3.0])

    def test_unsorted_times_rejected(self):
        with pytest.raises(ConfigError, match="non-decreasing"):
            self.make([2.0, 1.0])

    def test_negative_times_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            self.make([-1.0, 2.0])

    def test_duration_must_cover_arrivals(self):
        with pytest.raises(ConfigError, match="cover"):
            self.make([1.0, 5.0], duration=3.0)

    @pytest.mark.parametrize("duration", [np.nan, np.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ConfigError, match="duration"):
            self.make([1.0], duration=duration)
