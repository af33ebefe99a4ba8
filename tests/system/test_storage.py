"""Integration tests for the assembled StorageSystem."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.system import StorageConfig, StorageSystem
from repro.units import GiB, MB
from repro.workload import FileCatalog, RequestStream


@pytest.fixture
def catalog():
    sizes = np.full(20, 72 * MB)
    pops = np.full(20, 1 / 20)
    return FileCatalog(sizes=sizes, popularities=pops)


@pytest.fixture
def stream(catalog, rng):
    return RequestStream.poisson(
        catalog.popularities, rate=0.5, duration=500.0, rng=rng
    )


class TestConstruction:
    def test_pool_covers_mapping(self, catalog):
        mapping = np.arange(20) % 4
        system = StorageSystem(catalog, mapping, StorageConfig(num_disks=2))
        assert len(system.array) == 4  # grown to cover the mapping

    def test_pool_respects_config_when_larger(self, catalog):
        mapping = np.zeros(20, dtype=np.int64)
        system = StorageSystem(catalog, mapping, StorageConfig(num_disks=8))
        assert len(system.array) == 8

    def test_explicit_pool_too_small_rejected(self, catalog):
        mapping = np.arange(20) % 4
        with pytest.raises(ConfigError):
            StorageSystem(catalog, mapping, StorageConfig(), num_disks=2)

    def test_mapping_length_must_match_catalog(self, catalog):
        with pytest.raises(ConfigError):
            StorageSystem(catalog, np.zeros(5, dtype=np.int64), StorageConfig())

    def test_cache_constructed_from_config(self, catalog):
        system = StorageSystem(
            catalog,
            np.zeros(20, dtype=np.int64),
            StorageConfig(num_disks=1, cache_policy="lru", cache_capacity=GiB),
        )
        assert system.dispatcher.cache is not None
        assert system.dispatcher.cache.capacity == GiB


class TestRun:
    def test_all_requests_complete_at_low_load(self, catalog, stream):
        mapping = np.arange(20) % 5
        system = StorageSystem(catalog, mapping, StorageConfig(num_disks=5))
        # Pad the horizon so in-flight requests at the stream's end drain.
        result = system.run(stream, duration=stream.duration + 60.0)
        assert result.arrivals == len(stream)
        assert result.completions == result.arrivals
        assert result.duration == stream.duration + 60.0
        assert result.energy > 0

    def test_energy_conservation(self, catalog, stream):
        # Total state time must equal duration x pool size, and energy must
        # equal the power-weighted integral of it.
        from repro.disk import PowerModel

        mapping = np.arange(20) % 5
        system = StorageSystem(catalog, mapping, StorageConfig(num_disks=5))
        result = system.run(stream)
        total_time = sum(result.state_durations.values())
        assert total_time == pytest.approx(result.duration * result.num_disks)
        pm = PowerModel(system.config.spec)
        assert result.energy == pytest.approx(pm.energy(result.state_durations))

    def test_responses_positive_and_bounded(self, catalog, stream):
        mapping = np.arange(20) % 5
        system = StorageSystem(catalog, mapping, StorageConfig(num_disks=5))
        result = system.run(stream)
        service = 1.0  # 72 MB at 72 MB/s
        assert np.all(result.response_times >= service * 0.99)
        assert np.all(result.response_times <= stream.duration)

    def test_duration_cutoff_censors_completions(self, catalog):
        # One giant service can't finish before the cutoff.
        big = FileCatalog(
            sizes=np.array([7_200 * MB]), popularities=np.array([1.0])
        )
        stream = RequestStream(
            times=np.array([0.0]), file_ids=np.array([0]), duration=10.0
        )
        system = StorageSystem(
            big, np.array([0]), StorageConfig(num_disks=1)
        )
        result = system.run(stream)
        assert result.arrivals == 1
        assert result.completions == 0

    def test_invalid_duration(self, catalog, stream):
        system = StorageSystem(
            catalog, np.zeros(20, dtype=np.int64), StorageConfig(num_disks=1)
        )
        with pytest.raises(ConfigError):
            system.run(stream, duration=0.0)

    def test_label_propagates(self, catalog, stream):
        mapping = np.arange(20) % 5
        system = StorageSystem(catalog, mapping, StorageConfig(num_disks=5))
        result = system.run(stream, label="mylabel")
        assert result.algorithm == "mylabel"


class TestOnePoolDescription:
    """A run resolves its pool once and hands that one
    :class:`~repro.disk.fleet.ResolvedFleet` to every layer."""

    CONFIGS = [
        dict(),
        dict(dpm_ladder="drpm4", dpm_policy="adaptive_timeout",
             control_interval=100.0),
        dict(fleet="mixed_generation", scheduler="slack_defer",
             slo_target=60.0, cache_policy="lru", cache_capacity=GiB),
    ]

    @pytest.mark.parametrize("engine", ["event", "fast"])
    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_resolved_once_per_run(
        self, monkeypatch, catalog, stream, engine, overrides
    ):
        calls = []
        original = StorageConfig.resolved_fleet

        def counted(config, num_disks=None):
            calls.append(num_disks)
            return original(config, num_disks)

        monkeypatch.setattr(StorageConfig, "resolved_fleet", counted)
        cfg = StorageConfig(num_disks=5, engine=engine, **overrides)
        system = StorageSystem(catalog, np.arange(20) % 5, cfg)
        assert calls == []  # building a system resolves nothing
        system.run(stream)
        assert calls == [5]
        if engine == "event":
            assert system.array.fleet is system.fleet

