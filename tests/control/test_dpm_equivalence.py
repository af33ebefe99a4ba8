"""Event/fast agreement for every registered DPM policy, plus the
``fixed`` byte-identity regression.

The control subsystem's core contract: both engines feed the shared
controller identical telemetry and honor its thresholds with identical
gap semantics, so every registered policy — across read-only, mixed
read/write and shared-cache scenarios — produces the same trajectories
up to the kernels' ~1 ulp float drift.  ``dpm_policy="fixed"`` must not
merely agree: it must take the *uncontrolled* code path and reproduce
the pre-control simulator bit for bit.
"""

import numpy as np
import pytest

from repro.control import ThresholdController, dpm_policy_names
from repro.disk.array import DiskArray
from repro.sim.environment import Environment
from repro.sim.fastkernel import simulate_fast
from repro.system import StorageConfig, StorageSystem, allocate
from repro.system.dispatcher import Dispatcher, drive_stream
from repro.units import GiB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedWorkloadParams, generate_mixed_workload

TOL = 1e-9

#: Dynamic policies only — ``fixed`` has its own byte-identity tests.
DYNAMIC = tuple(n for n in dpm_policy_names() if n != "fixed")

#: slo_target used whenever a policy requires one (ignored otherwise).
SLO_TARGET = 30.0


def run_both(catalog, stream, mapping, cfg, num_disks=None):
    event = StorageSystem(
        catalog, mapping, cfg.with_overrides(engine="event"),
        num_disks=num_disks,
    ).run(stream)
    fast = StorageSystem(
        catalog, mapping, cfg.with_overrides(engine="fast"),
        num_disks=num_disks,
    ).run(stream)
    return event, fast


def assert_equivalent(event, fast):
    assert fast.arrivals == event.arrivals
    assert fast.completions == event.completions
    assert fast.spinups == event.spinups
    assert fast.spindowns == event.spindowns
    assert fast.energy == pytest.approx(event.energy, rel=TOL)
    np.testing.assert_allclose(
        fast.energy_per_disk, event.energy_per_disk, rtol=TOL, atol=1e-6
    )
    np.testing.assert_allclose(
        np.sort(fast.response_times),
        np.sort(event.response_times),
        rtol=TOL,
        atol=1e-9,
    )
    for state, t in event.state_durations.items():
        assert fast.state_durations.get(state, 0.0) == pytest.approx(
            t, rel=TOL, abs=1e-6
        )
    if event.cache_stats is not None:
        assert fast.cache_stats.hits == event.cache_stats.hits
        assert fast.cache_stats.misses == event.cache_stats.misses
    # The control traces: identical threshold decisions, matching
    # percentile estimates, and power traces agreeing to accumulation
    # noise (the event engine integrates energies online, the fast
    # kernel bins logged spans).
    dpm_e, dpm_f = event.extra["dpm"], fast.extra["dpm"]
    assert dpm_f["thresholds"] == dpm_e["thresholds"]
    assert dpm_f["t_end"] == dpm_e["t_end"]
    np.testing.assert_allclose(
        dpm_f["p95_running"], dpm_e["p95_running"], rtol=1e-6
    )
    assert dpm_f["completions"] == dpm_e["completions"]
    assert dpm_f["mean_queue_depth"] == dpm_e["mean_queue_depth"]
    np.testing.assert_allclose(
        np.asarray(dpm_f["power"]),
        np.asarray(dpm_e["power"]),
        rtol=1e-6,
        atol=1e-9,
    )


def config(policy, **overrides):
    kwargs = dict(
        num_disks=40,
        load_constraint=0.6,
        dpm_policy=policy,
        control_interval=150.0,
    )
    if policy == "slo_feedback":
        kwargs["slo_target"] = SLO_TARGET
    kwargs.update(overrides)
    return StorageConfig(**kwargs)


@pytest.fixture(scope="module")
def sparse_workload():
    """Sparse traffic over many disks: real spin activity under control."""
    return generate_workload(
        SyntheticWorkloadParams(
            n_files=1_200, arrival_rate=1.0, duration=900.0, seed=11
        )
    )


@pytest.fixture(scope="module")
def mixed_fixture():
    """Mixed read/write stream with new files left to the write policy."""
    base = generate_workload(
        SyntheticWorkloadParams(
            n_files=300, arrival_rate=0.8, duration=700.0, seed=29
        )
    )
    catalog, stream = generate_mixed_workload(
        base.catalog,
        MixedWorkloadParams(
            write_fraction=0.35,
            new_file_fraction=0.6,
            arrival_rate=1.2,
            duration=700.0,
            seed=29,
        ),
    )
    mapping = np.arange(catalog.n, dtype=np.int64) % 10
    mapping[base.catalog.n:] = -1
    return catalog, stream, mapping


@pytest.mark.parametrize("policy", DYNAMIC)
def test_read_only_agrees_across_engines(policy, sparse_workload):
    """Iterates the registry, so future policies are covered automatically."""
    cfg = config(policy)
    mapping = allocate(
        sparse_workload.catalog, "pack", cfg, 1.0
    ).mapping(sparse_workload.catalog.n)
    event, fast = run_both(
        sparse_workload.catalog, sparse_workload.stream, mapping, cfg
    )
    assert_equivalent(event, fast)
    assert event.spindowns > 0  # the scenario exercises spin transitions


@pytest.mark.parametrize("cache_policy", [None, "lru"])
@pytest.mark.parametrize("policy", DYNAMIC)
def test_mixed_writes_agree_across_engines(policy, cache_policy, mixed_fixture):
    catalog, stream, mapping = mixed_fixture
    cfg = config(
        policy,
        num_disks=10,
        load_constraint=0.7,
        cache_policy=cache_policy,
        cache_capacity=GiB,
    )
    event, fast = run_both(catalog, stream, mapping, cfg, num_disks=10)
    assert_equivalent(event, fast)
    # Placement decisions stayed byte-identical under control.
    assert np.array_equal(fast.final_mapping, event.final_mapping)
    assert event.arrivals > 0


def test_policies_actually_steer_differently(sparse_workload):
    """Sanity: the grid is not vacuous — policies produce distinct runs."""
    cfg0 = config("adaptive_timeout")
    mapping = allocate(
        sparse_workload.catalog, "pack", cfg0, 1.0
    ).mapping(sparse_workload.catalog.n)
    spinups = {}
    for policy in DYNAMIC + ("fixed",):
        cfg = config(policy, engine="fast")
        res = StorageSystem(
            sparse_workload.catalog, mapping, cfg
        ).run(sparse_workload.stream)
        spinups[policy] = (res.spinups, round(res.energy, 3))
    assert len(set(spinups.values())) >= 3


class TestFixedIsByteIdentical:
    """``dpm_policy="fixed"`` reproduces the pre-control simulator exactly."""

    def _workload(self):
        return generate_workload(
            SyntheticWorkloadParams(
                n_files=800, arrival_rate=2.0, duration=500.0, seed=7
            )
        )

    def test_event_engine_matches_manual_machinery(self):
        """A StorageSystem run with the default (fixed) policy equals a
        hand-assembled pre-control simulation bit for bit: no controller
        process exists to perturb event ordering or float accumulation.
        """
        wl = self._workload()
        cfg = StorageConfig(num_disks=30, load_constraint=0.7)
        mapping = allocate(wl.catalog, "pack", cfg, 2.0).mapping(wl.catalog.n)

        system = StorageSystem(wl.catalog, mapping, cfg)
        via_system = system.run(wl.stream)

        env = Environment()
        array = DiskArray(env, cfg.resolved_fleet(system.num_disks))
        dispatcher = Dispatcher(
            env, array, mapping, wl.catalog.sizes,
            usable_capacity=cfg.usable_capacity,
        )
        env.process(drive_stream(env, dispatcher, wl.stream))
        env.run(until=wl.stream.duration)

        assert via_system.energy == array.total_energy()  # exact
        assert np.array_equal(
            via_system.response_times, dispatcher.responses_array()
        )
        assert via_system.spinups == array.total_spinups()
        assert via_system.spindowns == array.total_spindowns()
        assert "dpm" not in via_system.extra

    def test_fast_engine_default_path_has_no_controller(self):
        wl = self._workload()
        cfg = StorageConfig(num_disks=30, load_constraint=0.7, engine="fast")
        mapping = allocate(wl.catalog, "pack", cfg, 2.0).mapping(wl.catalog.n)
        system = StorageSystem(wl.catalog, mapping, cfg)
        via_system = system.run(wl.stream)

        direct = simulate_fast(
            sizes=wl.catalog.sizes,
            mapping=mapping,
            fleet=cfg.resolved_fleet(system.num_disks),
            stream=wl.stream,
            duration=wl.stream.duration,
        )
        assert via_system.energy == direct.energy  # exact
        assert np.array_equal(via_system.response_times, direct.response_times)
        assert via_system.spinups == direct.spinups
        assert "dpm" not in via_system.extra

    def test_controlled_machinery_degenerates_to_fixed(self):
        """Forcing the fixed policy *through* the interval-segmented path
        must reproduce the plain fixed run exactly — segmentation, the
        per-gap threshold lookups and the telemetry plumbing change no
        simulated quantity.
        """
        wl = self._workload()
        cfg = StorageConfig(num_disks=30, load_constraint=0.7)
        mapping = allocate(wl.catalog, "pack", cfg, 2.0).mapping(wl.catalog.n)
        num_disks = max(cfg.num_disks, int(mapping.max()) + 1)

        plain = simulate_fast(
            sizes=wl.catalog.sizes,
            mapping=mapping,
            fleet=cfg.resolved_fleet(num_disks),
            stream=wl.stream,
            duration=wl.stream.duration,
        )
        controller = ThresholdController(
            "fixed", 100.0, num_disks, cfg.threshold, cfg.spec
        )
        controlled = simulate_fast(
            sizes=wl.catalog.sizes,
            mapping=mapping,
            fleet=cfg.resolved_fleet(num_disks),
            stream=wl.stream,
            duration=wl.stream.duration,
            dpm=controller,
        )
        assert controlled.energy == plain.energy  # bit-for-bit
        assert np.array_equal(controlled.response_times, plain.response_times)
        assert controlled.spinups == plain.spinups
        assert controlled.spindowns == plain.spindowns
        assert np.array_equal(
            controlled.energy_per_disk, plain.energy_per_disk
        )
        # And the trace confirms the thresholds never moved.
        trace = controlled.extra["dpm"]["thresholds"]
        assert all(
            row == [cfg.threshold] * num_disks for row in trace
        )
