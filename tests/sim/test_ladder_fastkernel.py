"""Fast-kernel ladder coverage: the two_state preset must be *byte-identical*
to the pre-ladder simulator, deeper ladders must agree with the event
engine, and the threshold axis must steer the descent schedule."""

import math

import numpy as np
import pytest

from repro.disk.dpm import make_dpm_ladder
from repro.disk.fleet import Fleet
from repro.errors import ConfigError
from repro.sim.fastkernel import simulate_fast
from repro.system import StorageConfig, StorageSystem, allocate
from repro.workload.generator import SyntheticWorkloadParams, generate_workload

SPEC = StorageConfig().spec


@pytest.fixture(scope="module")
def sparse():
    """Sparse traffic over many disks: real descent/wake activity."""
    return generate_workload(
        SyntheticWorkloadParams(
            n_files=1_000, arrival_rate=1.0, duration=900.0, seed=23
        )
    )


def _mapping(workload, cfg):
    return allocate(workload.catalog, "pack", cfg, 1.0).mapping(
        workload.catalog.n
    )


class TestTwoStateByteIdentity:
    """Acceptance: dpm_ladder='two_state' + dpm_policy='fixed' reproduces
    the pre-ladder simulator bit for bit (both engines)."""

    @pytest.mark.parametrize("threshold", [None, 0.0, 20.0, math.inf])
    def test_fast_engine_bit_equal(self, sparse, threshold):
        cfg = StorageConfig(
            num_disks=40,
            load_constraint=0.6,
            idleness_threshold=threshold,
            engine="fast",
        )
        mapping = _mapping(sparse, cfg)
        plain = StorageSystem(sparse.catalog, mapping, cfg).run(sparse.stream)
        laddered = StorageSystem(
            sparse.catalog, mapping, cfg.with_overrides(dpm_ladder="two_state")
        ).run(sparse.stream)
        assert np.array_equal(laddered.response_times, plain.response_times)
        assert laddered.energy == plain.energy  # bit-for-bit
        assert np.array_equal(laddered.energy_per_disk, plain.energy_per_disk)
        assert laddered.spinups == plain.spinups
        assert laddered.spindowns == plain.spindowns
        assert np.array_equal(
            laddered.spinups_per_disk, plain.spinups_per_disk
        )
        # State residencies match value-for-value under the label mapping.
        rename = {
            "idle": "idle",
            "standby": "standby",
            "seek": "seek",
            "active": "active",
            "spinup": "wake:standby",
            "spindown": "down:standby",
        }
        for state, t in plain.state_durations.items():
            assert laddered.state_durations.get(rename[state.value], 0.0) == t

    def test_event_engine_bit_equal(self, sparse):
        cfg = StorageConfig(num_disks=40, load_constraint=0.6)
        mapping = _mapping(sparse, cfg)
        plain = StorageSystem(sparse.catalog, mapping, cfg).run(sparse.stream)
        laddered = StorageSystem(
            sparse.catalog, mapping, cfg.with_overrides(dpm_ladder="two_state")
        ).run(sparse.stream)
        assert np.array_equal(laddered.response_times, plain.response_times)
        assert laddered.energy == plain.energy
        assert laddered.spinups == plain.spinups

    def test_controlled_two_state_matches_classic_controlled(self, sparse):
        """Under a dynamic policy the controlled ladder bank's recursion is
        the controlled classic bank's, term for term."""
        cfg = StorageConfig(
            num_disks=40,
            load_constraint=0.6,
            dpm_policy="adaptive_timeout",
            control_interval=150.0,
            engine="fast",
        )
        mapping = _mapping(sparse, cfg)
        plain = StorageSystem(sparse.catalog, mapping, cfg).run(sparse.stream)
        laddered = StorageSystem(
            sparse.catalog, mapping, cfg.with_overrides(dpm_ladder="two_state")
        ).run(sparse.stream)
        assert np.array_equal(laddered.response_times, plain.response_times)
        assert laddered.energy == plain.energy
        assert (
            laddered.extra["dpm"]["thresholds"]
            == plain.extra["dpm"]["thresholds"]
        )


class TestLadderKernel:
    @pytest.mark.parametrize("ladder", ("nap", "drpm4"))
    @pytest.mark.parametrize("threshold", [None, 10.0, 120.0])
    def test_agrees_with_event_engine(self, sparse, ladder, threshold):
        cfg = StorageConfig(
            num_disks=40,
            load_constraint=0.6,
            dpm_ladder=ladder,
            idleness_threshold=threshold,
        )
        mapping = _mapping(sparse, cfg)
        event = StorageSystem(
            sparse.catalog, mapping, cfg.with_overrides(engine="event")
        ).run(sparse.stream)
        fast = StorageSystem(
            sparse.catalog, mapping, cfg.with_overrides(engine="fast")
        ).run(sparse.stream)
        assert fast.spinups == event.spinups
        assert fast.spindowns == event.spindowns
        assert fast.energy == pytest.approx(event.energy, rel=1e-9)
        np.testing.assert_allclose(
            np.sort(fast.response_times),
            np.sort(event.response_times),
            rtol=1e-9,
            atol=1e-9,
        )
        for state, t in event.state_durations.items():
            assert fast.state_durations.get(state, 0.0) == pytest.approx(
                t, rel=1e-9, abs=1e-6
            )
        assert event.spindowns > 0

    def test_intermediate_rungs_split_the_wake_cost(self, sparse):
        """The ladder's payoff: against the same first-descent threshold,
        drpm4 wakes mostly from cheap intermediate rungs, so it must beat
        the two-state drive on energy at equal-or-better mean response."""
        base = StorageConfig(num_disks=40, load_constraint=0.6, engine="fast")
        mapping = _mapping(sparse, base)
        ladder = make_dpm_ladder("drpm4", SPEC)
        th = ladder.base_threshold
        two = StorageSystem(
            sparse.catalog, mapping,
            base.with_overrides(idleness_threshold=th),
        ).run(sparse.stream)
        multi = StorageSystem(
            sparse.catalog, mapping,
            base.with_overrides(dpm_ladder="drpm4"),
        ).run(sparse.stream)
        assert multi.energy < two.energy
        assert multi.mean_response <= two.mean_response + 1e-9

    def test_threshold_scales_descent_schedule(self, sparse):
        """A larger first-descent threshold must not increase energy
        saving: the whole schedule relaxes with it."""
        base = StorageConfig(
            num_disks=40, load_constraint=0.6, dpm_ladder="nap", engine="fast"
        )
        mapping = _mapping(sparse, base)
        energies = []
        for th in (10.0, 60.0, 400.0):
            res = StorageSystem(
                sparse.catalog, mapping,
                base.with_overrides(idleness_threshold=th),
            ).run(sparse.stream)
            energies.append(res.energy)
        assert energies[0] < energies[-1]

    def test_inf_threshold_never_descends(self, sparse):
        cfg = StorageConfig(
            num_disks=40,
            load_constraint=0.6,
            dpm_ladder="drpm4",
            idleness_threshold=math.inf,
            engine="fast",
        )
        mapping = _mapping(sparse, cfg)
        res = StorageSystem(sparse.catalog, mapping, cfg).run(sparse.stream)
        assert res.spindowns == 0
        assert res.spinups == 0
        assert set(res.state_durations) <= {"idle", "seek", "active"}

    def test_unknown_ladder_rejected(self):
        with pytest.raises(ConfigError, match="ladder"):
            StorageConfig(dpm_ladder="bogus")

    def test_simulate_fast_accepts_ladder_directly(self, sparse):
        cfg = StorageConfig(num_disks=30, load_constraint=0.6)
        mapping = _mapping(sparse, cfg)
        ladder = make_dpm_ladder("nap", SPEC)
        res = simulate_fast(
            sizes=sparse.catalog.sizes,
            mapping=mapping,
            fleet=Fleet.uniform(cfg.spec, ladder=ladder).resolve(
                max(cfg.num_disks, int(mapping.max()) + 1)
            ),
            stream=sparse.stream,
            duration=sparse.stream.duration,
        )
        assert res.spindowns > 0
        assert "nap" in res.state_durations
