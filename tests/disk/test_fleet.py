"""Unit tests for heterogeneous fleet profiles and their resolution."""

import numpy as np
import pytest

from repro.disk.dpm import make_dpm_ladder
from repro.disk.fleet import (
    FLEETS,
    Fleet,
    FleetDisk,
    fleet_names,
    make_fleet,
)
from repro.disk.specs import ST3500630AS, WD10EADS
from repro.errors import ConfigError


class TestProfileTiling:
    def test_profile_tiles_across_the_pool(self):
        fleet = make_fleet("mixed_generation")
        resolved = fleet.resolve(5)
        assert [s.model for s in resolved.specs] == [
            ST3500630AS.model,
            WD10EADS.model,
            ST3500630AS.model,
            WD10EADS.model,
            ST3500630AS.model,
        ]
        assert resolved.capacities[0] == ST3500630AS.capacity
        assert resolved.capacities[1] == WD10EADS.capacity

    def test_uniform_sugar_is_homogeneous(self):
        resolved = Fleet.uniform(ST3500630AS).resolve(4)
        assert resolved.homogeneous_specs
        assert not resolved.has_ladders
        np.testing.assert_allclose(
            resolved.thresholds, ST3500630AS.breakeven_threshold()
        )

    def test_mixed_specs_are_not_homogeneous(self):
        resolved = make_fleet("mixed_generation").resolve(2)
        assert not resolved.homogeneous_specs


class TestLadderResolution:
    def test_partial_ladders_backfill_two_state(self):
        fleet = Fleet(
            "partial",
            (FleetDisk(ST3500630AS, ladder="drpm4"), FleetDisk(WD10EADS)),
        )
        resolved = fleet.resolve(4)
        assert resolved.has_ladders
        assert resolved.ladders[0] == make_dpm_ladder("drpm4", ST3500630AS)
        # The ladderless green slot gets *its own spec's* two-state rung.
        assert resolved.ladders[1] == make_dpm_ladder("two_state", WD10EADS)

    def test_no_ladders_anywhere_stays_ladderless(self):
        resolved = make_fleet("mixed_generation").resolve(4)
        assert not resolved.has_ladders
        assert resolved.ladders == (None, None, None, None)

    def test_config_default_ladder_applies_to_every_slot(self):
        resolved = make_fleet("mixed_generation").resolve(
            2, default_ladder="nap"
        )
        assert resolved.ladders[0] == make_dpm_ladder("nap", ST3500630AS)
        assert resolved.ladders[1] == make_dpm_ladder("nap", WD10EADS)


class TestThresholdFallback:
    def test_slot_threshold_beats_config_default(self):
        fleet = Fleet(
            "t", (FleetDisk(ST3500630AS, threshold=7.0), FleetDisk(WD10EADS))
        )
        resolved = fleet.resolve(2, default_threshold=99.0)
        assert resolved.thresholds[0] == 7.0
        assert resolved.thresholds[1] == 99.0

    def test_unset_threshold_falls_back_to_spec_breakeven(self):
        resolved = make_fleet("mixed_generation").resolve(2)
        assert resolved.thresholds[0] == ST3500630AS.breakeven_threshold()
        assert resolved.thresholds[1] == WD10EADS.breakeven_threshold()

    def test_ladder_entry_beats_spec_breakeven(self):
        fleet = Fleet("l", (FleetDisk(ST3500630AS, ladder="drpm4"),))
        resolved = fleet.resolve(1)
        ladder = make_dpm_ladder("drpm4", ST3500630AS)
        assert resolved.thresholds[0] == ladder.base_threshold


class TestValidation:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown fleet"):
            make_fleet("nope")

    def test_registry_and_names_agree(self):
        assert fleet_names() == tuple(FLEETS)
        assert "mixed_generation" in fleet_names()

    def test_empty_profile_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            Fleet("empty", ())

    def test_bad_slot_ladder_rejected(self):
        with pytest.raises(ConfigError, match="unknown DPM ladder"):
            FleetDisk(ST3500630AS, ladder="not_a_ladder")

    def test_negative_slot_threshold_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            FleetDisk(ST3500630AS, threshold=-1.0)

    def test_non_spec_slot_rejected(self):
        with pytest.raises(ConfigError, match="DiskSpec"):
            FleetDisk("ST3500630AS")

    def test_zero_disks_rejected(self):
        with pytest.raises(ConfigError, match="num_disks"):
            make_fleet("mixed_generation").resolve(0)

    @pytest.mark.parametrize("threshold", ["5", b"5", [5.0], True])
    def test_non_numeric_slot_threshold_is_a_config_error(self, threshold):
        with pytest.raises(ConfigError, match="FleetDisk.threshold"):
            FleetDisk(ST3500630AS, threshold=threshold)

    @pytest.mark.parametrize("num_disks", [2.5, 2.0, "2", None, True])
    def test_non_integer_pool_size_is_a_config_error(self, num_disks):
        with pytest.raises(ConfigError, match="num_disks"):
            make_fleet("mixed_generation").resolve(num_disks)

    def test_numpy_integer_pool_size_resolves(self):
        resolved = make_fleet("mixed_generation").resolve(np.int64(3))
        assert resolved.num_disks == 3


class TestLadderSharing:
    #: The tiered fleet of benchmarks/bench_hetero_fleet.py: a DRPM ladder
    #: on the Seagate slot, a two-state backfill on the green slot.
    TIERED = Fleet(
        "tiered",
        (
            FleetDisk(ST3500630AS, ladder="drpm4"),
            FleetDisk(WD10EADS, threshold=30.0),
        ),
    )

    @staticmethod
    def _per_disk(fleet, num_disks):
        """The resolution with one ladder build per disk slot."""
        slots = [fleet.profile[d % len(fleet.profile)] for d in range(num_disks)]
        ladders = [make_dpm_ladder(s.ladder, s.spec) for s in slots]
        return [
            l if l is not None else make_dpm_ladder("two_state", s.spec)
            for l, s in zip(ladders, slots)
        ]

    def test_one_build_per_preset_and_spec(self, monkeypatch):
        import repro.disk.dpm as dpm

        builds = []
        for name, builder in list(dpm.DPM_LADDERS.items()):
            def counted(spec, _name=name, _builder=builder):
                builds.append((_name, spec.model))
                return _builder(spec)

            monkeypatch.setitem(dpm.DPM_LADDERS, name, counted)
        resolved = self.TIERED.resolve(100)
        assert sorted(builds) == sorted(
            [("drpm4", ST3500630AS.model), ("two_state", WD10EADS.model)]
        )
        assert resolved.ladders[0] is resolved.ladders[98]
        assert resolved.ladders[1] is resolved.ladders[99]

    def test_shared_ladders_resolve_as_before(self):
        resolved = self.TIERED.resolve(100)
        assert list(resolved.ladders) == self._per_disk(self.TIERED, 100)
        assert resolved.specs == (ST3500630AS, WD10EADS) * 50
        assert resolved.thresholds.tolist() == [
            make_dpm_ladder("drpm4", ST3500630AS).base_threshold, 30.0
        ] * 50
        assert resolved.has_ladders and not resolved.homogeneous_specs
        assert resolved.num_disks == 100
