"""Unit tests for StorageConfig."""

import math

import pytest

from repro.disk import ServiceModel
from repro.errors import ConfigError
from repro.system import StorageConfig
from repro.units import GiB


class TestValidation:
    def test_defaults_valid(self):
        cfg = StorageConfig()
        assert cfg.num_disks == 100
        assert cfg.load_constraint == 0.8
        assert cfg.cache_policy is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_disks": 0},
            {"load_constraint": 0.0},
            {"load_constraint": 1.5},
            {"storage_utilization": 0.0},
            {"idleness_threshold": -5.0},
            {"cache_hit_latency": -1.0},
            {"cache_capacity": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            StorageConfig(**kwargs)

    @pytest.mark.parametrize(
        "field",
        [
            "idleness_threshold",
            "cache_hit_latency",
            "cache_capacity",
            "control_interval",
            "slo_target",
        ],
    )
    def test_nan_rejected(self, field):
        # NaN passes every ``<``/``<=`` range check; it used to reach the
        # engines and come back as a NaN energy or an untyped ValueError.
        with pytest.raises(ConfigError, match=field):
            StorageConfig(**{field: math.nan})

    def test_infinite_hit_latency_rejected(self):
        # It used to be accepted and turned the mean and p95 response of
        # both engines into inf.
        with pytest.raises(ConfigError, match="cache_hit_latency"):
            StorageConfig(cache_hit_latency=math.inf)

    def test_unbounded_cache_accepted(self):
        assert StorageConfig(cache_capacity=math.inf).cache_capacity == math.inf

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cache_capacity", "5"),
            ("num_disks", "5"),
            ("num_disks", 2.5),
            ("num_disks", True),
            ("idleness_threshold", "1"),
            ("load_constraint", "0.7"),
            ("storage_utilization", [1.0]),
            ("cache_hit_latency", None),
            ("control_interval", "250"),
            ("slo_target", "60"),
            ("slo_percentile", None),
        ],
    )
    def test_non_number_rejected(self, field, value):
        # These used to raise a bare TypeError from a range comparison.
        with pytest.raises(ConfigError, match=field):
            StorageConfig(**{field: value})

    def test_numpy_numbers_accepted(self):
        import numpy as np

        cfg = StorageConfig(
            num_disks=np.int64(4), idleness_threshold=np.float64(3.0)
        )
        assert cfg.num_disks == 4


class TestDerived:
    def test_threshold_defaults_to_breakeven(self, spec):
        cfg = StorageConfig()
        assert cfg.threshold == pytest.approx(spec.breakeven_threshold())

    def test_explicit_threshold(self):
        assert StorageConfig(idleness_threshold=120.0).threshold == 120.0

    def test_infinite_threshold_allowed(self):
        assert math.isinf(StorageConfig(idleness_threshold=math.inf).threshold)

    def test_usable_capacity(self, spec):
        cfg = StorageConfig(storage_utilization=0.9)
        assert cfg.usable_capacity == pytest.approx(0.9 * spec.capacity)

    def test_service_model(self):
        sm = StorageConfig(service_mode="transfer").service_model()
        assert isinstance(sm, ServiceModel)
        assert sm.mode == "transfer"

    def test_with_overrides(self):
        cfg = StorageConfig().with_overrides(num_disks=7, cache_policy="lru")
        assert cfg.num_disks == 7
        assert cfg.cache_policy == "lru"
        assert cfg.cache_capacity == 16 * GiB


class TestLadderConfig:
    def test_default_has_no_ladder(self):
        cfg = StorageConfig()
        assert cfg.dpm_ladder is None
        assert cfg.ladder() is None

    def test_preset_resolves(self, spec):
        from repro.disk.dpm import DpmLadder

        cfg = StorageConfig(dpm_ladder="nap")
        ladder = cfg.ladder()
        assert isinstance(ladder, DpmLadder)
        assert [r.name for r in ladder.rungs] == ["idle", "nap", "standby"]
        # Without an explicit threshold the ladder's first entry governs.
        assert cfg.threshold == ladder.base_threshold

    def test_two_state_preset_threshold_is_breakeven(self, spec):
        cfg = StorageConfig(dpm_ladder="two_state")
        assert cfg.threshold == spec.breakeven_threshold()

    def test_explicit_threshold_scales_ladder(self):
        cfg = StorageConfig(dpm_ladder="drpm4", idleness_threshold=30.0)
        assert cfg.threshold == 30.0
        assert cfg.ladder().scaled_entries(cfg.threshold)[1] == 30.0

    def test_user_ladder_instance_accepted(self, spec):
        from repro.disk.dpm import DpmLadder, LadderRung

        ladder = DpmLadder(
            "user",
            (
                LadderRung("idle", spec.idle_power),
                LadderRung(
                    "deep", 1.0, entry=40.0, down_time=2.0,
                    down_power=5.0, wake_time=4.0, wake_power=20.0,
                ),
            ),
        )
        cfg = StorageConfig(dpm_ladder=ladder)
        assert cfg.ladder() is ladder
        assert cfg.threshold == 40.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="ladder"):
            StorageConfig(dpm_ladder="bogus")

    def test_non_ladder_object_rejected(self):
        with pytest.raises(ConfigError, match="ladder"):
            StorageConfig(dpm_ladder=42)
