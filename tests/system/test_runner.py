"""Tests for the high-level runners (allocate / simulate / reorganize)."""

import numpy as np
import pytest

from repro.disk.drive import READ, WRITE
from repro.errors import ConfigError
from repro.system import (
    ReorganizingRunner,
    StorageConfig,
    allocate,
    build_items,
    run_policy,
    simulate,
)
from repro.workload import (
    FileCatalog,
    RequestStream,
    SyntheticWorkloadParams,
    generate_workload,
)
from repro.workload.mixed import (
    MixedRequestStream,
    MixedWorkloadParams,
    generate_mixed_workload,
)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        SyntheticWorkloadParams(
            n_files=1_500, arrival_rate=2.0, duration=400.0, seed=11
        )
    )


# 1500 files at R=2 carry ~33 disk-seconds/s of load (small catalogs have
# a hot, large head), needing ~48 disks at L=0.7; a 60-disk pool leaves
# Pack_Disks comfortable headroom.
CFG = StorageConfig(num_disks=60, load_constraint=0.7)


class TestBuildItems:
    def test_normalization(self, workload):
        items = build_items(workload.catalog, CFG, arrival_rate=2.0)
        assert len(items) == 1_500
        assert all(0 <= it.size <= 1 and 0 <= it.load <= 1 for it in items)

    def test_loads_scale_with_rate(self, workload):
        low = build_items(workload.catalog, CFG, arrival_rate=1.0)
        high = build_items(workload.catalog, CFG, arrival_rate=2.0)
        assert high[0].load == pytest.approx(2 * low[0].load)

    def test_popularity_override(self, workload):
        uniform = np.full(1_500, 1 / 1_500)
        items = build_items(
            workload.catalog, CFG, arrival_rate=2.0, popularities=uniform
        )
        # Uniform popularity: load proportional to service time only.
        assert items[0].load < items[-1].load


class TestAllocate:
    @pytest.mark.parametrize(
        "policy",
        ["pack", "pack_v4", "pack_v2", "random", "round_robin",
         "first_fit", "first_fit_decreasing", "best_fit", "next_fit"],
    )
    def test_policies_produce_valid_allocations(self, workload, policy):
        alloc = allocate(workload.catalog, policy, CFG, 2.0, rng=1)
        items = build_items(workload.catalog, CFG, 2.0)
        # Random/round-robin are load-oblivious; check storage only.
        for disk in alloc.disks:
            assert disk.total_size <= 1 + 1e-9
        assert alloc.num_items == len(items)

    def test_unknown_policy(self, workload):
        with pytest.raises(ConfigError):
            allocate(workload.catalog, "quantum", CFG, 2.0)

    def test_pack_uses_fewer_disks_than_pool(self, workload):
        alloc = allocate(workload.catalog, "pack", CFG, 2.0)
        assert alloc.num_disks <= CFG.num_disks


class TestRunPolicy:
    def test_end_to_end(self, workload):
        res = run_policy(
            workload.catalog, workload.stream, "pack", CFG, arrival_rate=2.0
        )
        assert res.arrivals == len(workload.stream)
        assert res.energy > 0
        assert res.num_disks == CFG.num_disks

    def test_rate_defaults_to_stream_rate(self, workload):
        res = run_policy(workload.catalog, workload.stream, "pack", CFG)
        assert res.completions > 0

    def test_deterministic(self, workload):
        a = run_policy(
            workload.catalog, workload.stream, "random", CFG, rng=5
        )
        b = run_policy(
            workload.catalog, workload.stream, "random", CFG, rng=5
        )
        assert a.energy == pytest.approx(b.energy)
        assert np.array_equal(a.response_times, b.response_times)

    def test_simulate_with_explicit_allocation(self, workload):
        alloc = allocate(workload.catalog, "pack", CFG, 2.0)
        res = simulate(
            workload.catalog, workload.stream, alloc, CFG, label="custom"
        )
        assert res.algorithm == "custom"


class TestReorganizingRunner:
    def test_epochs_and_movement(self):
        catalog = FileCatalog.from_zipf(n=300, s_max=1e9)
        stream = RequestStream.poisson(
            catalog.popularities, rate=1.0, duration=600.0, rng=3
        )
        cfg = StorageConfig(num_disks=10, load_constraint=0.8)
        runner = ReorganizingRunner(catalog, cfg, interval=200.0)
        result = runner.run(stream)
        assert result.extra["epochs"] == 3.0
        assert len(runner.epoch_results) == 3
        assert len(runner.moved_files) == 2  # epochs-1 remap events
        assert result.arrivals == len(stream)
        assert result.algorithm == "pack+reorg"

    def test_invalid_interval(self, small_catalog):
        with pytest.raises(ConfigError):
            ReorganizingRunner(small_catalog, CFG, interval=0.0)

    def test_invalid_smoothing(self, small_catalog):
        with pytest.raises(ConfigError):
            ReorganizingRunner(small_catalog, CFG, smoothing=2.0)

    def test_energy_per_disk_aggregated_across_epochs(self):
        # Regression: per-disk energy used to be reported as zeros.
        catalog = FileCatalog.from_zipf(n=300, s_max=1e9)
        stream = RequestStream.poisson(
            catalog.popularities, rate=1.0, duration=600.0, rng=3
        )
        cfg = StorageConfig(num_disks=10, load_constraint=0.8)
        runner = ReorganizingRunner(catalog, cfg, interval=200.0)
        result = runner.run(stream)
        assert result.energy_per_disk.shape == (result.num_disks,)
        assert np.all(result.energy_per_disk > 0)  # every disk draws power
        assert result.energy_per_disk.sum() == pytest.approx(result.energy)
        # Each disk's total is the sum of its per-epoch energies.
        assert result.energy_per_disk[0] == pytest.approx(
            sum(r.energy_per_disk[0] for r in runner.epoch_results)
        )

    def test_num_disks_is_max_pool_across_epochs(self):
        catalog = FileCatalog.from_zipf(n=300, s_max=1e9)
        stream = RequestStream.poisson(
            catalog.popularities, rate=1.0, duration=600.0, rng=3
        )
        cfg = StorageConfig(num_disks=10, load_constraint=0.8)
        runner = ReorganizingRunner(catalog, cfg, interval=200.0)
        result = runner.run(stream)
        assert result.num_disks == max(
            r.num_disks for r in runner.epoch_results
        )


class TestReorganizingRunnerMixedStreams:
    """Regression: epoch splitting used to drop ``kinds`` silently."""

    def _mixed(self, seed=7, duration=600.0):
        base = FileCatalog.from_zipf(n=250, s_max=1e9)
        catalog, stream = generate_mixed_workload(
            base,
            MixedWorkloadParams(
                write_fraction=0.4,
                new_file_fraction=0.5,
                arrival_rate=1.0,
                duration=duration,
                seed=seed,
            ),
        )
        return catalog, stream

    def test_split_threads_kinds_through_epochs(self):
        catalog, stream = self._mixed()
        runner = ReorganizingRunner(
            catalog, StorageConfig(num_disks=10, load_constraint=0.8),
            interval=200.0,
        )
        epochs = runner._split(stream)
        assert all(isinstance(e, MixedRequestStream) for e, _ in epochs)
        assert sum(len(e) for e, _ in epochs) == len(stream)
        # Kinds stay aligned with their requests across the split.
        n_writes = int(np.sum(stream.kinds == WRITE))
        assert sum(int(np.sum(e.kinds == WRITE)) for e, _ in epochs) == n_writes
        assert n_writes > 0
        for epoch, start in epochs:
            lo = np.searchsorted(stream.times, start)
            np.testing.assert_array_equal(
                epoch.kinds, stream.kinds[lo:lo + len(epoch)]
            )

    def test_split_rejects_misaligned_kinds(self, small_catalog):
        stream = MixedRequestStream(
            times=np.array([1.0, 2.0]),
            file_ids=np.array([0, 1]),
            kinds=np.array([READ, WRITE]),
            duration=10.0,
        )
        stream.kinds = np.array([READ])  # corrupt after validation
        runner = ReorganizingRunner(small_catalog, CFG, interval=5.0)
        with pytest.raises(ConfigError, match="kinds"):
            runner._split(stream)

    def test_writes_are_not_simulated_as_reads(self):
        # The observable difference between a write and a read is the
        # shared cache: reads are looked up, writes are not.  The old
        # _split rebuilt epochs as plain RequestStreams, so every write
        # hit the cache path as a read and inflated lookups.
        catalog, stream = self._mixed()
        cfg = StorageConfig(
            num_disks=10,
            load_constraint=0.8,
            cache_policy="lru",
        )
        runner = ReorganizingRunner(catalog, cfg, interval=200.0)
        result = runner.run(stream)
        assert result.arrivals == len(stream)
        n_reads = int(np.sum(stream.kinds == READ))
        lookups = sum(
            r.cache_stats.lookups for r in runner.epoch_results
        )
        assert lookups == n_reads
        assert n_reads < len(stream)  # the stream really carries writes


class TestReorganizingRunnerInitialCandidates:
    """Allocation candidates tournament at every epoch via the orchestrator."""

    def _workload(self):
        catalog = FileCatalog.from_zipf(n=300, s_max=1e9)
        stream = RequestStream.poisson(
            catalog.popularities, rate=1.0, duration=600.0, rng=3
        )
        return catalog, stream

    CANDIDATES = ("pack", "first_fit_decreasing", "best_fit")

    def test_winner_minimizes_energy_and_seeds_the_chain(self):
        catalog, stream = self._workload()
        cfg = StorageConfig(num_disks=10, load_constraint=0.8)
        runner = ReorganizingRunner(
            catalog, cfg, interval=200.0,
            initial_candidates=self.CANDIDATES,
        )
        result = runner.run(stream)
        assert runner.chosen_initial_policy in self.CANDIDATES
        assert set(runner.initial_candidate_results) == set(self.CANDIDATES)
        best = runner.initial_candidate_results[runner.chosen_initial_policy]
        assert best.energy == min(
            r.energy for r in runner.initial_candidate_results.values()
        )
        # The winning candidate's simulation *is* the epoch-0 result.
        assert runner.epoch_results[0] is best
        assert runner.epoch_results[0].algorithm == (
            f"{runner.chosen_initial_policy}@epoch0"
        )
        # The tournament re-runs at every re-pack epoch: each epoch's
        # result is its own winner's simulation.
        assert runner.epoch_results[1].algorithm == (
            f"{runner.chosen_policies[1]}@epoch1"
        )
        assert result.arrivals == len(stream)
        assert result.extra["epochs"] == 3.0

    def test_tournament_reruns_at_every_epoch(self):
        catalog, stream = self._workload()
        cfg = StorageConfig(num_disks=10, load_constraint=0.8)
        runner = ReorganizingRunner(
            catalog, cfg, interval=200.0,
            initial_candidates=self.CANDIDATES,
        )
        result = runner.run(stream)
        n_epochs = int(result.extra["epochs"])
        assert n_epochs == 3
        # One winner and one full candidate-result dict per epoch.
        assert len(runner.chosen_policies) == n_epochs
        assert all(p in self.CANDIDATES for p in runner.chosen_policies)
        assert len(runner.candidate_results) == n_epochs
        for i, per_epoch in enumerate(runner.candidate_results):
            assert set(per_epoch) == set(self.CANDIDATES)
            winner = runner.chosen_policies[i]
            assert per_epoch[winner].energy == min(
                r.energy for r in per_epoch.values()
            )
            assert runner.epoch_results[i] is per_epoch[winner]
        # Epoch-0 compat surface unchanged.
        assert runner.chosen_initial_policy == runner.chosen_policies[0]
        assert runner.initial_candidate_results == runner.candidate_results[0]
        assert result.extra["chosen_policies"] == runner.chosen_policies

    def test_no_candidates_keeps_serial_chain_semantics(self):
        catalog, stream = self._workload()
        cfg = StorageConfig(num_disks=10, load_constraint=0.8)
        runner = ReorganizingRunner(catalog, cfg, interval=200.0)
        result = runner.run(stream)
        assert runner.chosen_policies == []
        assert runner.candidate_results == []
        assert "chosen_policies" not in result.extra
        assert all(
            r.algorithm == f"pack@epoch{i}"
            for i, r in enumerate(runner.epoch_results)
        )

    def test_single_candidate_matches_serial_run(self):
        catalog, stream = self._workload()
        cfg = StorageConfig(num_disks=10, load_constraint=0.8)
        serial = ReorganizingRunner(catalog, cfg, interval=200.0).run(stream)
        fanned = ReorganizingRunner(
            catalog, cfg, interval=200.0, initial_candidates=("pack",)
        ).run(stream)
        assert fanned.energy == pytest.approx(serial.energy, rel=1e-12)
        assert fanned.arrivals == serial.arrivals
        assert np.allclose(fanned.response_times, serial.response_times)

    def test_generator_rng_rejected(self, small_catalog, rng):
        runner = ReorganizingRunner(
            small_catalog, CFG, interval=200.0,
            initial_candidates=("pack", "best_fit"),
        )
        stream = RequestStream.poisson(
            small_catalog.popularities, rate=0.5, duration=400.0, rng=1
        )
        with pytest.raises(ConfigError, match="seed"):
            runner.run(stream, rng=rng)

    def test_random_candidate_requires_seed(self, small_catalog):
        runner = ReorganizingRunner(
            small_catalog, CFG, interval=200.0,
            initial_candidates=("pack", "random"),
        )
        stream = RequestStream.poisson(
            small_catalog.popularities, rate=0.5, duration=400.0, rng=1
        )
        with pytest.raises(ConfigError, match="random"):
            runner.run(stream)
        result = runner.run(stream, rng=9)  # a seed makes it legal
        assert runner.chosen_initial_policy in ("pack", "random")
        assert result.arrivals == len(stream)


class TestReorganizingRunnerSplit:
    """Regression tests for the float-accumulation epoch-edge bugs."""

    def _runner(self, catalog, interval):
        return ReorganizingRunner(catalog, CFG, interval=interval)

    def test_no_sliver_epoch_from_float_accumulation(self, small_catalog):
        # 3 * 0.1 != 0.3 in floats: np.arange used to emit a fourth,
        # zero-length epoch here, crashing StorageSystem.run.
        duration = 0.1 + 0.1 + 0.1  # 0.30000000000000004
        stream = RequestStream(
            times=np.array([0.05, 0.15, 0.25]),
            file_ids=np.array([0, 1, 2]),
            duration=duration,
        )
        epochs = self._runner(small_catalog, 0.1)._split(stream)
        assert len(epochs) == 3
        assert all(epoch.duration > 0 for epoch, _ in epochs)
        assert sum(epoch.duration for epoch, _ in epochs) == pytest.approx(
            duration
        )

    def test_split_runs_end_to_end_on_sliver_duration(self, small_catalog):
        stream = RequestStream.poisson(
            small_catalog.popularities,
            rate=0.5,
            duration=0.1 + 0.1 + 0.1,
            rng=1,
        )
        runner = self._runner(small_catalog, 0.1)
        result = runner.run(stream)
        assert result.extra["epochs"] == 3.0

    def test_partial_final_epoch_spans_remainder(self, small_catalog):
        stream = RequestStream(
            times=np.array([10.0, 450.0]),
            file_ids=np.array([0, 1]),
            duration=500.0,
        )
        epochs = self._runner(small_catalog, 200.0)._split(stream)
        assert len(epochs) == 3
        assert epochs[-1][0].duration == pytest.approx(100.0)
        assert epochs[-1][1] == pytest.approx(400.0)

    def test_request_at_exact_horizon_lands_in_final_epoch(
        self, small_catalog
    ):
        # RequestStream permits times[-1] == duration; the final epoch's
        # upper bound must be inclusive or the request silently vanishes.
        stream = RequestStream(
            times=np.array([50.0, 250.0, 600.0]),
            file_ids=np.array([0, 1, 2]),
            duration=600.0,
        )
        epochs = self._runner(small_catalog, 200.0)._split(stream)
        assert sum(len(epoch) for epoch, _ in epochs) == len(stream)
        last_epoch = epochs[-1][0]
        assert last_epoch.times[-1] == pytest.approx(last_epoch.duration)

    def test_interval_longer_than_stream_yields_one_epoch(
        self, small_catalog
    ):
        stream = RequestStream(
            times=np.array([5.0]), file_ids=np.array([0]), duration=100.0
        )
        epochs = self._runner(small_catalog, 1_000.0)._split(stream)
        assert len(epochs) == 1
        assert epochs[0][0].duration == pytest.approx(100.0)

    @pytest.mark.parametrize("interval", [1e-310, float("nan")])
    def test_non_finite_epoch_count_raises_config_error(self, interval):
        # 100 / 1e-310 overflows to inf, which math.ceil used to reject
        # with a bare OverflowError; NaN passes the ``<= 0`` check too.
        catalog = FileCatalog.from_zipf(n=50, s_max=1e9)
        stream = RequestStream.poisson(
            catalog.popularities, rate=0.5, duration=100.0, rng=2
        )
        runner = ReorganizingRunner(
            catalog, StorageConfig(num_disks=5), interval=interval
        )
        with pytest.raises(ConfigError, match="interval"):
            runner.run(stream)
        assert runner.epoch_results == []
