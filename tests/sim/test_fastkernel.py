"""Equivalence suite: the batched fast kernel vs the event kernel.

Every scenario is run through both engines via the public
``StorageConfig(engine=...)`` switch and compared on energy, response-time
distribution, spin counts, cache statistics and per-disk accounting.
Tolerances are far tighter than the 1e-6 acceptance bar: the only expected
differences are ~1 ulp float drift in the event loop's arrival-time
accumulation.
"""

import math

import numpy as np
import pytest

from repro.cache import LRUCache
from repro.disk.fleet import Fleet
from repro.errors import ConfigError, SimulationError
from repro.obs.trace import TraceRecorder
from repro.sim.fastkernel import fast_unsupported_reason, simulate_fast
from repro.system import StorageConfig, StorageSystem, allocate
from repro.units import GiB, MB
from repro.workload import FileCatalog, RequestStream
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedWorkloadParams, generate_mixed_workload


def run_both(catalog, stream, mapping, cfg, num_disks=None, duration=None):
    event = StorageSystem(
        catalog, mapping, cfg.with_overrides(engine="event"),
        num_disks=num_disks,
    ).run(stream, duration=duration)
    fast = StorageSystem(
        catalog, mapping, cfg.with_overrides(engine="fast"),
        num_disks=num_disks,
    ).run(stream, duration=duration)
    return event, fast


def assert_equivalent(event, fast):
    assert fast.num_disks == event.num_disks
    assert fast.duration == pytest.approx(event.duration)
    assert fast.arrivals == event.arrivals
    assert fast.completions == event.completions
    assert fast.spinups == event.spinups
    assert fast.spindowns == event.spindowns
    assert fast.energy == pytest.approx(event.energy, rel=1e-9)
    assert fast.always_on_energy == pytest.approx(
        event.always_on_energy, rel=1e-12
    )
    np.testing.assert_allclose(
        fast.energy_per_disk, event.energy_per_disk, rtol=1e-9, atol=1e-6
    )
    np.testing.assert_allclose(
        np.sort(fast.response_times),
        np.sort(event.response_times),
        rtol=1e-9,
        atol=1e-9,
    )
    assert np.array_equal(fast.requests_per_disk, event.requests_per_disk)
    assert np.array_equal(fast.spinups_per_disk, event.spinups_per_disk)
    for state, t in event.state_durations.items():
        assert fast.state_durations.get(state, 0.0) == pytest.approx(
            t, rel=1e-9, abs=1e-6
        )
    assert (fast.cache_stats is None) == (event.cache_stats is None)
    if event.cache_stats is not None:
        for field in ("hits", "misses", "insertions", "evictions", "rejected"):
            assert getattr(fast.cache_stats, field) == getattr(
                event.cache_stats, field
            ), field
        assert fast.cache_stats.bytes_hit == pytest.approx(
            event.cache_stats.bytes_hit
        )
        assert fast.cache_stats.bytes_missed == pytest.approx(
            event.cache_stats.bytes_missed
        )


@pytest.fixture(scope="module")
def fig2_workload():
    """A Figure 2-style seed point: Table 1 shapes at R=4."""
    return generate_workload(
        SyntheticWorkloadParams(
            n_files=3_000, arrival_rate=4.0, duration=600.0, seed=20090525
        )
    )


@pytest.fixture(scope="module")
def fig4_workload():
    """A Figure 4-style seed point: R=6 at a tight load constraint."""
    return generate_workload(
        SyntheticWorkloadParams(
            n_files=2_000, arrival_rate=6.0, duration=500.0, seed=20090525
        )
    )


class TestSeedScenarioEquivalence:
    def test_fig2_pack(self, fig2_workload):
        cfg = StorageConfig(num_disks=100, load_constraint=0.7)
        mapping = allocate(fig2_workload.catalog, "pack", cfg, 4.0).mapping(
            fig2_workload.catalog.n
        )
        event, fast = run_both(
            fig2_workload.catalog, fig2_workload.stream, mapping, cfg
        )
        assert_equivalent(event, fast)
        assert event.spinups > 0  # the scenario exercises spin transitions

    def test_fig2_random_baseline(self, fig2_workload):
        cfg = StorageConfig(num_disks=100)
        mapping = allocate(
            fig2_workload.catalog, "random", cfg, 4.0, rng=7, num_disks=100
        ).mapping(fig2_workload.catalog.n)
        event, fast = run_both(
            fig2_workload.catalog, fig2_workload.stream, mapping, cfg
        )
        assert_equivalent(event, fast)

    @pytest.mark.parametrize("load", [0.5, 0.9])
    def test_fig4_load_sweep(self, fig4_workload, load):
        cfg = StorageConfig(num_disks=100, load_constraint=load)
        mapping = allocate(fig4_workload.catalog, "pack", cfg, 6.0).mapping(
            fig4_workload.catalog.n
        )
        event, fast = run_both(
            fig4_workload.catalog, fig4_workload.stream, mapping, cfg
        )
        assert_equivalent(event, fast)

    @pytest.mark.parametrize(
        "threshold", [0.0, 2.0, 30.0, None, math.inf]
    )
    def test_threshold_grid(self, fig4_workload, threshold):
        cfg = StorageConfig(
            num_disks=100, load_constraint=0.7, idleness_threshold=threshold
        )
        mapping = allocate(fig4_workload.catalog, "pack", cfg, 6.0).mapping(
            fig4_workload.catalog.n
        )
        event, fast = run_both(
            fig4_workload.catalog, fig4_workload.stream, mapping, cfg
        )
        assert_equivalent(event, fast)

    def test_drain_horizon_beyond_stream(self, fig4_workload):
        cfg = StorageConfig(num_disks=100, load_constraint=0.7)
        mapping = allocate(fig4_workload.catalog, "pack", cfg, 6.0).mapping(
            fig4_workload.catalog.n
        )
        event, fast = run_both(
            fig4_workload.catalog,
            fig4_workload.stream,
            mapping,
            cfg,
            duration=fig4_workload.stream.duration + 150.0,
        )
        assert_equivalent(event, fast)


class TestEdgeCases:
    @pytest.fixture
    def one_file(self):
        return FileCatalog(
            sizes=np.array([72 * MB]), popularities=np.array([1.0])
        )

    def test_censored_completion(self):
        # One giant service crossing the cutoff: arrival counted, no
        # completion, partial SEEK/ACTIVE time billed identically.
        big = FileCatalog(
            sizes=np.array([7_200 * MB]), popularities=np.array([1.0])
        )
        stream = RequestStream(
            times=np.array([0.0]), file_ids=np.array([0]), duration=10.0
        )
        event, fast = run_both(
            big, stream, np.array([0]), StorageConfig(num_disks=1)
        )
        assert_equivalent(event, fast)
        assert fast.completions == 0
        assert fast.arrivals == 1

    def test_arrival_exactly_at_horizon_censored(self, one_file):
        stream = RequestStream(
            times=np.array([1.0, 10.0]),
            file_ids=np.array([0, 0]),
            duration=10.0,
        )
        event, fast = run_both(
            one_file, stream, np.array([0]), StorageConfig(num_disks=1)
        )
        assert_equivalent(event, fast)
        assert fast.arrivals == 1  # the t == duration request never runs

    def test_empty_stream_unused_disks_spin_down(self, one_file):
        stream = RequestStream(
            times=np.array([]), file_ids=np.array([]), duration=300.0
        )
        event, fast = run_both(
            one_file, stream, np.array([0]), StorageConfig(num_disks=5)
        )
        assert_equivalent(event, fast)
        assert fast.spindowns == 5

    def test_spinup_delay_observed_in_response(self, one_file, spec):
        # Second request arrives long after the first drained: it must pay
        # spin-up (15 s) + seek + transfer; the first pays seek + transfer.
        stream = RequestStream(
            times=np.array([0.0, 500.0]),
            file_ids=np.array([0, 0]),
            duration=600.0,
        )
        cfg = StorageConfig(num_disks=1)  # break-even threshold (53.3 s)
        event, fast = run_both(one_file, stream, np.array([0]), cfg)
        assert_equivalent(event, fast)
        service = spec.access_overhead + spec.transfer_time(72 * MB)
        np.testing.assert_allclose(
            np.sort(fast.response_times),
            np.sort([service, spec.spinup_time + service]),
            rtol=1e-12,
        )

    def test_arrival_during_spindown_waits_for_both_transitions(
        self, one_file, spec
    ):
        # Arrival 2 s into the (10 s, non-abortable) spin-down: service
        # waits for spin-down end + full spin-up.
        threshold = 20.0
        arrive = threshold + 2.0  # idle timer fired at t=20
        stream = RequestStream(
            times=np.array([arrive]), file_ids=np.array([0]), duration=200.0
        )
        cfg = StorageConfig(num_disks=1, idleness_threshold=threshold)
        event, fast = run_both(one_file, stream, np.array([0]), cfg)
        assert_equivalent(event, fast)
        wait = (threshold + spec.spindown_time - arrive) + spec.spinup_time
        service = spec.access_overhead + spec.transfer_time(72 * MB)
        assert fast.response_times[0] == pytest.approx(wait + service)


def mixed_scenario(
    catalog,
    write_fraction=0.3,
    new_file_fraction=0.5,
    rate=1.5,
    duration=1500.0,
    seed=11,
    num_disks=8,
    **cfg_overrides,
):
    """Build (extended catalog, stream, mapping, cfg) for a mixed run.

    Existing files are packed; files appended by the generator start
    unallocated (``-1``) so the §1.1 write-allocation path is exercised.
    """
    extended, stream = generate_mixed_workload(
        catalog,
        MixedWorkloadParams(
            write_fraction=write_fraction,
            new_file_fraction=new_file_fraction,
            arrival_rate=rate,
            duration=duration,
            seed=seed,
        ),
    )
    cfg = StorageConfig(
        num_disks=num_disks, load_constraint=0.7, **cfg_overrides
    )
    alloc = allocate(catalog, "pack", cfg, rate)
    mapping = np.concatenate(
        [
            alloc.mapping(catalog.n),
            np.full(extended.n - catalog.n, -1, dtype=np.int64),
        ]
    )
    return extended, stream, mapping, cfg


class TestMixedStreamEquivalence:
    """§1.1 write allocation on the fast path vs the event dispatcher."""

    @pytest.mark.parametrize("write_fraction", [0.1, 0.4])
    @pytest.mark.parametrize("threshold", [0.0, 30.0, None, math.inf])
    def test_mixed_grid(self, small_catalog, write_fraction, threshold):
        extended, stream, mapping, cfg = mixed_scenario(
            small_catalog,
            write_fraction=write_fraction,
            idleness_threshold=threshold,
        )
        event, fast = run_both(extended, stream, mapping, cfg)
        assert_equivalent(event, fast)
        assert event.arrivals > 0

    def test_writes_allocate_and_later_reads_follow(self, small_catalog):
        # High new-file fraction: mapping updates made by the §1.1 policy
        # must be visible to subsequent reads of the same file.
        extended, stream, mapping, cfg = mixed_scenario(
            small_catalog,
            write_fraction=0.5,
            new_file_fraction=0.9,
            rate=2.0,
            seed=29,
        )
        event, fast = run_both(extended, stream, mapping, cfg)
        assert_equivalent(event, fast)

    def test_standby_fallback_branch(self, small_catalog):
        # A tiny threshold keeps the pool asleep between sparse arrivals,
        # forcing writes through the worst-fit standby fallback.
        extended, stream, mapping, cfg = mixed_scenario(
            small_catalog,
            write_fraction=0.6,
            new_file_fraction=0.8,
            rate=0.05,
            duration=20_000.0,
            seed=5,
            idleness_threshold=1.0,
        )
        event, fast = run_both(extended, stream, mapping, cfg)
        assert_equivalent(event, fast)
        assert event.spinups > 0


class TestCachedEquivalence:
    """Shared whole-file cache on the fast path vs the event dispatcher."""

    @pytest.mark.parametrize("policy", ["lru", "lfu", "fifo", "clock"])
    def test_policy_grid(self, policy):
        workload = generate_workload(
            SyntheticWorkloadParams(
                n_files=800, arrival_rate=3.0, duration=800.0, seed=7
            )
        )
        cfg = StorageConfig(
            num_disks=30,
            load_constraint=0.7,
            cache_policy=policy,
            cache_capacity=4 * GiB,
            cache_hit_latency=0.05,
        )
        mapping = allocate(workload.catalog, "pack", cfg, 3.0).mapping(
            workload.catalog.n
        )
        event, fast = run_both(workload.catalog, workload.stream, mapping, cfg)
        assert_equivalent(event, fast)
        assert event.cache_stats.lookups > 0

    def test_small_cache_forces_evictions(self, small_catalog):
        # A cache barely larger than the hottest files: admissions evict
        # constantly, so eviction ordering must match the event kernel.
        stream = RequestStream.poisson(
            small_catalog.popularities, rate=2.0, duration=2_000.0, rng=13
        )
        cfg = StorageConfig(
            num_disks=6,
            load_constraint=0.7,
            cache_policy="lru",
            cache_capacity=3e9,
        )
        mapping = allocate(small_catalog, "pack", cfg, 2.0).mapping(
            small_catalog.n
        )
        event, fast = run_both(small_catalog, stream, mapping, cfg)
        assert_equivalent(event, fast)
        assert event.cache_stats.evictions > 0
        assert event.cache_stats.hits > 0

    @pytest.mark.parametrize("policy", ["lru", "clock"])
    def test_cached_mixed_grid(self, small_catalog, policy):
        extended, stream, mapping, cfg = mixed_scenario(
            small_catalog,
            write_fraction=0.2,
            new_file_fraction=0.6,
            rate=2.0,
            duration=1200.0,
            seed=23,
            cache_policy=policy,
            cache_capacity=6 * GiB,
        )
        event, fast = run_both(extended, stream, mapping, cfg)
        assert_equivalent(event, fast)
        assert event.cache_stats.hits > 0


class TestUnsupportedScenarios:
    def test_all_read_mixed_stream_supported(self, small_catalog):
        extended, stream = generate_mixed_workload(
            small_catalog,
            MixedWorkloadParams(
                write_fraction=0.0, arrival_rate=1.0, duration=100.0, seed=3
            ),
        )
        assert fast_unsupported_reason(stream) is None

    def test_cache_configs_supported(self, small_catalog):
        # The fast kernel runs shared caches: they never fall back (the
        # reason reads the stream alone).
        stream = RequestStream(
            times=np.array([1.0]), file_ids=np.array([0]), duration=10.0
        )
        assert fast_unsupported_reason(stream) is None

    def test_write_streams_supported(self, small_catalog):
        extended, stream = generate_mixed_workload(
            small_catalog,
            MixedWorkloadParams(
                write_fraction=0.3, arrival_rate=1.0, duration=100.0, seed=3
            ),
        )
        assert fast_unsupported_reason(stream) is None

    def test_non_array_stream_rejected(self):
        reason = fast_unsupported_reason(iter([(0.0, 1)]))
        assert "array-backed" in reason

    def test_out_of_order_times_raise(self, spec):
        # RequestStream validates ordering itself, so hand the kernel a raw
        # array-backed object; it must match drive_stream's SimulationError
        # instead of silently reordering the FIFO queues.
        class Raw:
            times = np.array([5.0, 3.0])
            file_ids = np.array([0, 0])
            duration = 10.0

        with pytest.raises(SimulationError, match="non-decreasing"):
            simulate_fast(
                sizes=np.array([MB]),
                mapping=np.array([0]),
                fleet=Fleet.uniform(spec, threshold=50.0).resolve(1),
                stream=Raw(),
                duration=10.0,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("cached", [False, True])
    def test_bad_file_size_raises(self, spec, bad, cached):
        # Without the check a NaN size came back as a NaN energy.
        stream = RequestStream(
            times=np.array([1.0, 2.0]), file_ids=np.array([0, 1]),
            duration=10.0,
        )
        with pytest.raises(SimulationError, match="file 1 has size"):
            simulate_fast(
                sizes=np.array([1e9, bad, 2e9]),
                mapping=np.array([0, 0, 0]),
                fleet=Fleet.uniform(spec, threshold=50.0).resolve(1),
                stream=stream,
                duration=10.0,
                cache=LRUCache(100 * GiB) if cached else None,
            )

    @pytest.mark.parametrize(
        "cache_policy, column, longer",
        [
            pytest.param(cache_policy, column, longer, id="-".join(
                [str(cache_policy)] + (["long", column] if longer else [])
            ))
            for column, longer in [
                ("kinds", False), ("kinds", True), ("file_ids", True),
            ]
            for cache_policy in [None, "lru"]
        ],
    )
    def test_short_kinds_column_raises(
        self, small_catalog, cache_policy, column, longer
    ):
        # A chunk whose kinds column is shorter than its times: a raw
        # IndexError without a cache, and an error naming the file ids
        # with one, before the kernel checked the column itself.  A
        # longer kinds or file_ids column was cut to the times and ran.
        extended, stream, mapping, cfg = mixed_scenario(
            small_catalog, engine="fast", cache_policy=cache_policy
        )
        n = len(stream)
        values = getattr(stream, column)
        bad = (
            np.concatenate([values, values[:3]]) if longer
            else values[: n // 2]
        )
        setattr(stream, column, bad)
        system = StorageSystem(extended, mapping, cfg)
        with pytest.raises(
            SimulationError, match=f"{bad.size} {column} for {n} arrivals"
        ):
            system.run(stream)

    @pytest.mark.parametrize("engine", ["event", "fast"])
    @pytest.mark.parametrize("cache_policy", [None, "lru"])
    def test_nan_file_size_raises_on_both_engines(
        self, small_catalog, engine, cache_policy
    ):
        # The catalog rejects a NaN size on construction; one written into
        # its array afterwards must still stop either engine.
        catalog = FileCatalog(
            sizes=small_catalog.sizes.copy(),
            popularities=small_catalog.popularities,
        )
        catalog.sizes[int(np.argmax(catalog.popularities))] = np.nan
        stream = RequestStream.poisson(
            catalog.popularities, rate=2.0, duration=200.0, rng=3
        )
        cfg = StorageConfig(
            num_disks=4, load_constraint=0.7, engine=engine,
            cache_policy=cache_policy,
        )
        system = StorageSystem(
            catalog, np.arange(catalog.n) % 4, cfg, num_disks=4
        )
        with pytest.raises(SimulationError, match="size"):
            system.run(stream)

    def test_invalid_engine_name(self):
        with pytest.raises(ConfigError, match="engine"):
            StorageConfig(engine="turbo")

    def test_unallocated_read_raises(self, spec):
        catalog = FileCatalog(
            sizes=np.array([72 * MB]), popularities=np.array([1.0])
        )
        stream = RequestStream(
            times=np.array([1.0]), file_ids=np.array([0]), duration=10.0
        )
        with pytest.raises(SimulationError, match="unallocated"):
            simulate_fast(
                sizes=catalog.sizes,
                mapping=np.array([-1]),
                fleet=Fleet.uniform(spec, threshold=50.0).resolve(1),
                stream=stream,
                duration=10.0,
            )

    def test_failed_observed_run_leaves_caller_cache_unhooked(self, spec):
        # An observed cached run installs an evict hook on the cache; when
        # the run raises (here: a read of an unallocated file after one
        # file was cached), the caller's cache must not keep it.
        cache = LRUCache(100 * MB)
        stream = RequestStream(
            times=np.array([1.0, 2.0, 3.0]),
            file_ids=np.array([0, 1, 2]),
            duration=10.0,
        )
        recorder = TraceRecorder()
        with pytest.raises(SimulationError, match="unallocated file 2"):
            simulate_fast(
                sizes=np.array([60 * MB, 60 * MB, MB]),
                mapping=np.array([0, 0, -1]),
                fleet=Fleet.uniform(spec, threshold=50.0).resolve(1),
                stream=stream,
                duration=10.0,
                cache=cache,
                observer=recorder,
            )
        # File 0's admission evicted nothing; file 1's evicted file 0
        # through the hook before the failing read.
        assert [k for _, k, _ in recorder.cache_events] == [
            "miss", "admit", "miss", "admit", "evict", "miss"
        ]
        assert cache.evict_hook is None

    def test_invalid_duration(self, spec):
        stream = RequestStream(
            times=np.array([]), file_ids=np.array([]), duration=10.0
        )
        with pytest.raises(ConfigError, match="duration"):
            simulate_fast(
                sizes=np.array([MB]),
                mapping=np.array([0]),
                fleet=Fleet.uniform(spec, threshold=50.0).resolve(1),
                stream=stream,
                duration=0.0,
            )
