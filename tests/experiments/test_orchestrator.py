"""Tests for the parallel sweep orchestrator (SweepRunner)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.orchestrator import (
    InlineWorkload,
    SimTask,
    SweepRunner,
    configure,
    default_cache_dir,
    default_runner,
    materialize_workload,
    task_fingerprint,
)
from repro.system import StorageConfig, run_policy
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedRequestStream, MixedWorkloadParams, generate_mixed_workload

PARAMS = SyntheticWorkloadParams(
    n_files=400, arrival_rate=1.0, duration=200.0, seed=9
)
CFG = StorageConfig(num_disks=20, load_constraint=0.7)


def make_task(label="pack", rate=1.0, key=None, config=CFG, **kwargs):
    return SimTask(
        label=label,
        workload=PARAMS,
        config=config,
        policy="pack",
        arrival_rate=rate,
        num_disks=config.num_disks,
        key=key,
        **kwargs,
    )


class TestSimTask:
    def test_requires_exactly_one_of_policy_or_mapping(self):
        with pytest.raises(ConfigError):
            SimTask(label="x", workload=PARAMS, config=CFG)
        with pytest.raises(ConfigError):
            SimTask(
                label="x",
                workload=PARAMS,
                config=CFG,
                policy="pack",
                mapping=np.zeros(400, dtype=np.int64),
            )

    def test_fingerprint_sensitivity(self):
        base = make_task()
        assert task_fingerprint(base) == task_fingerprint(make_task())
        assert task_fingerprint(base) != task_fingerprint(
            make_task(config=CFG.with_overrides(load_constraint=0.8))
        )
        other_seed = SimTask(
            label="pack",
            workload=SyntheticWorkloadParams(
                n_files=400, arrival_rate=1.0, duration=200.0, seed=10
            ),
            config=CFG,
            policy="pack",
            arrival_rate=1.0,
            num_disks=CFG.num_disks,
        )
        assert task_fingerprint(base) != task_fingerprint(other_seed)


class TestSweepRunner:
    def test_matches_direct_simulation(self):
        runner = SweepRunner(max_workers=1)
        (result,) = runner.run([make_task()])
        workload = generate_workload(PARAMS)
        direct = run_policy(
            workload.catalog, workload.stream, "pack", CFG, arrival_rate=1.0
        )
        assert result.energy == pytest.approx(direct.energy, rel=1e-12)
        np.testing.assert_allclose(
            result.response_times, direct.response_times
        )
        assert result.extra["alloc_disks"] > 0

    def test_caching_across_batches(self):
        # Stats reset per run(): each call reports its own sweep, with the
        # per-run snapshots piling up on history.
        runner = SweepRunner(max_workers=1)
        first = runner.run([make_task()])
        assert runner.stats.executed == 1
        assert runner.stats.cached == 0
        second = runner.run([make_task()])
        assert runner.stats.executed == 0
        assert runner.stats.cached == 1
        assert runner.stats.memory_hits == 1
        assert first[0] is second[0]
        assert [s.executed for s in runner.history] == [1, 0]
        assert [s.cached for s in runner.history] == [0, 1]

    def test_dedup_within_batch(self):
        runner = SweepRunner(max_workers=1)
        a, b = runner.run([make_task(), make_task()])
        assert runner.stats.executed == 1
        assert runner.stats.deduplicated == 1
        assert a is b

    def test_disk_cache_survives_runner_lifetimes(self, tmp_path):
        warm = SweepRunner(max_workers=1, cache_dir=tmp_path)
        (first,) = warm.run([make_task()])
        cold = SweepRunner(max_workers=1, cache_dir=tmp_path)
        (second,) = cold.run([make_task()])
        assert cold.stats.executed == 0
        assert cold.stats.cached == 1
        assert second.energy == pytest.approx(first.energy, rel=1e-12)

    def test_corrupt_disk_cache_entry_treated_as_miss(self, tmp_path):
        # A truncated pickle (crashed writer) must not poison the sweep.
        runner = SweepRunner(max_workers=1, cache_dir=tmp_path)
        task = make_task()
        from repro.experiments.orchestrator import task_fingerprint

        key = task_fingerprint(runner._with_engine(task))
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        (result,) = runner.run([task])
        assert runner.stats.executed == 1  # recomputed, not crashed
        assert result.energy > 0
        # The rewritten entry is now loadable by a fresh runner.
        cold = SweepRunner(max_workers=1, cache_dir=tmp_path)
        cold.run([task])
        assert cold.stats.cached == 1

    def test_two_workers_match_serial(self):
        tasks = [
            make_task(label=f"pack R={r:g}", rate=r, key=r) for r in (0.5, 1.0)
        ]
        serial = SweepRunner(max_workers=1).run_map(tasks)
        parallel = SweepRunner(max_workers=2).run_map(tasks)
        assert set(serial) == set(parallel) == {0.5, 1.0}
        for key in serial:
            assert parallel[key].energy == pytest.approx(
                serial[key].energy, rel=1e-12
            )

    def test_mapping_task(self):
        workload = generate_workload(PARAMS)
        inline = InlineWorkload(
            sizes=workload.catalog.sizes,
            popularities=workload.catalog.popularities,
            times=workload.stream.times,
            file_ids=workload.stream.file_ids,
            duration=workload.stream.duration,
        )
        mapping = np.arange(workload.catalog.n) % 5
        task = SimTask(
            label="fixed",
            workload=inline,
            config=StorageConfig(num_disks=5),
            mapping=mapping,
            num_disks=5,
        )
        (result,) = SweepRunner(max_workers=1).run([task])
        assert result.algorithm == "fixed"
        assert result.num_disks == 5
        assert result.arrivals == len(workload.stream)

    def test_run_map_falls_back_to_index_keys(self):
        runner = SweepRunner(max_workers=1)
        by_key = runner.run_map([make_task(key=None)])
        assert set(by_key) == {0}


class TestEngineOverride:
    def test_engine_applied_when_supported(self):
        # Start from the other engine so the override is what sets "fast".
        runner = SweepRunner(max_workers=1, engine="fast")
        task = make_task(config=CFG.with_overrides(engine="event"))
        assert runner._with_engine(task).config.engine == "fast"

    def test_engine_applied_to_cache_configs(self):
        # The fast kernel covers shared caches, so the override applies to
        # cached grid points too.
        runner = SweepRunner(max_workers=1, engine="fast")
        cached_cfg = CFG.with_overrides(cache_policy="lru", engine="event")
        task = make_task(config=cached_cfg)
        assert runner._with_engine(task).config.engine == "fast"

    def test_engine_left_alone_for_unknown_workload_types(self):
        runner = SweepRunner(max_workers=1, engine="fast")
        task = make_task(config=CFG.with_overrides(engine="event"))
        object.__setattr__(task, "workload", ("opaque", "spec"))
        assert runner._with_engine(task).config.engine == "event"

    def test_fast_engine_results_match_event(self):
        event = SweepRunner(max_workers=1, engine="event").run([make_task()])
        fast = SweepRunner(max_workers=1, engine="fast").run([make_task()])
        assert fast[0].energy == pytest.approx(event[0].energy, rel=1e-9)
        assert fast[0].completions == event[0].completions

    def test_fast_engine_matches_event_on_cached_points(self):
        cached = make_task(config=CFG.with_overrides(cache_policy="lru"))
        event = SweepRunner(max_workers=1, engine="event").run([cached])
        fast = SweepRunner(max_workers=1, engine="fast").run([cached])
        assert fast[0].energy == pytest.approx(event[0].energy, rel=1e-9)
        assert fast[0].completions == event[0].completions
        assert fast[0].cache_stats.hits == event[0].cache_stats.hits
        assert fast[0].cache_stats.misses == event[0].cache_stats.misses

    def test_invalid_engine_rejected(self):
        with pytest.raises(ConfigError):
            SweepRunner(engine="warp")


def _inline_workload(kinds=False, seed=9):
    workload = generate_workload(PARAMS)
    if not kinds:
        return InlineWorkload(
            sizes=workload.catalog.sizes,
            popularities=workload.catalog.popularities,
            times=workload.stream.times,
            file_ids=workload.stream.file_ids,
            duration=workload.stream.duration,
        )
    catalog, stream = generate_mixed_workload(
        workload.catalog,
        MixedWorkloadParams(
            write_fraction=0.3, arrival_rate=1.0, duration=200.0, seed=seed
        ),
    )
    return catalog, InlineWorkload(
        sizes=catalog.sizes,
        popularities=catalog.popularities,
        times=stream.times,
        file_ids=stream.file_ids,
        duration=stream.duration,
        kinds=stream.kinds,
    )


class TestSharedWorkloads:
    def test_parallel_inline_tasks_ship_workload_via_initializer(self):
        inline = _inline_workload()
        mapping = np.arange(inline.sizes.shape[0]) % 5
        tasks = [
            SimTask(
                label=f"d{duration:g}",
                workload=inline,
                config=StorageConfig(num_disks=5),
                mapping=mapping,
                num_disks=5,
                duration=duration,
                key=duration,
            )
            for duration in (120.0, 160.0, 200.0)
        ]
        serial = SweepRunner(max_workers=1).run_map(tasks)
        parallel = SweepRunner(max_workers=2).run_map(tasks)
        for key in serial:
            assert parallel[key].energy == pytest.approx(
                serial[key].energy, rel=1e-12
            )
            assert parallel[key].completions == serial[key].completions

    def test_fingerprints_unaffected_by_substitution(self):
        # The digest-reference substitution happens at submission time only;
        # a second (serial) runner must hit the same disk cache entries.
        inline = _inline_workload()
        mapping = np.arange(inline.sizes.shape[0]) % 5
        task = SimTask(
            label="fixed",
            workload=inline,
            config=StorageConfig(num_disks=5),
            mapping=mapping,
            num_disks=5,
        )
        other = SimTask(
            label="fixed2",
            workload=inline,
            config=StorageConfig(num_disks=5),
            mapping=mapping,
            num_disks=5,
        )
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            warm = SweepRunner(max_workers=2, cache_dir=tmp)
            warm.run([task, other])
            assert warm.stats.executed == 2
            cold = SweepRunner(max_workers=1, cache_dir=tmp)
            cold.run([task, other])
            assert cold.stats.executed == 0
            assert cold.stats.cached == 2


class TestMixedInlineWorkload:
    def test_kinds_change_the_digest(self):
        plain = _inline_workload()
        _, mixed = _inline_workload(kinds=True)
        assert plain.content_digest() != mixed.content_digest()

    def test_materializes_as_mixed_stream(self):
        _, inline = _inline_workload(kinds=True)
        _, stream = materialize_workload(inline)
        assert isinstance(stream, MixedRequestStream)
        assert 0.0 < stream.write_fraction < 1.0

    def test_mixed_task_matches_on_both_engines(self):
        catalog, inline = _inline_workload(kinds=True)
        mapping = np.arange(catalog.n, dtype=np.int64) % 5
        # Files appended by the mixed generator start unallocated, so the
        # §1.1 write-allocation path runs on both engines.
        mapping[PARAMS.n_files:] = -1
        task = SimTask(
            label="mixed",
            workload=inline,
            config=StorageConfig(num_disks=5),
            mapping=mapping,
            num_disks=5,
            key="m",
        )
        event = SweepRunner(max_workers=1, engine="event").run([task])
        fast = SweepRunner(max_workers=1, engine="fast").run([task])
        assert fast[0].energy == pytest.approx(event[0].energy, rel=1e-9)
        assert fast[0].completions == event[0].completions
        assert fast[0].spinups == event[0].spinups


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "sweeps"))
        assert default_cache_dir() == tmp_path / "sweeps"

    @pytest.mark.parametrize("token", ["off", "OFF", "none", "0", ""])
    def test_env_disable_tokens(self, monkeypatch, token):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", token)
        assert default_cache_dir() is None

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro" / "sweeps"


class TestDefaultRunner:
    def test_configure_replaces_shared_runner(self):
        before = default_runner()
        replaced = configure(max_workers=1)
        try:
            assert default_runner() is replaced
            assert replaced is not before
        finally:
            configure()  # restore an environment-default runner

    def test_shared_runner_uses_disk_backed_default_cache(self):
        runner = configure()
        try:
            # The test session pins REPRO_SWEEP_CACHE to a tmp dir (see
            # conftest), so the shared runner must pick that up.
            assert runner.cache_dir == default_cache_dir()
            assert runner.cache_dir is not None
        finally:
            configure()

    def test_configure_cache_dir_off(self):
        runner = configure(cache_dir=None)
        try:
            assert runner.cache_dir is None
        finally:
            configure()
