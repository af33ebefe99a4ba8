"""Controller telemetry conserves the run's responses.

The fast kernel computes each served request's completion and response
once, and both the controller's per-interval telemetry and the result's
response accounting read those values.  So over a controlled run in full
metrics mode the responses handed to ``advance``/``finalize`` are exactly
the result's responses — bit for bit, partitioned by interval — for any
chunking of the stream, with and without a request scheduler.

The idle gaps handed over with them are the same columns for every
chunking, and the event engine hands over the same per-disk gap
sequences for the same scenario.
"""

import numpy as np
import pytest

from repro.cache import LRUCache
from repro.control import ThresholdController
from repro.sim.fastkernel import simulate_fast, simulate_fast_chunked
from repro.system import StorageConfig, StorageSystem, allocate
from repro.system.scheduling import build_scheduling_setup
from repro.units import GiB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload

NUM_DISKS = 12


class RecordingController(ThresholdController):
    """A controller that keeps the responses and the idle gaps of every
    interval it is handed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seen = []
        self.gaps = []

    def advance(self, t_start, t_end, responses, gaps, *rest, **kw):
        self.seen.append(np.array(responses, dtype=float))
        self.gaps.append(gaps)
        return super().advance(t_start, t_end, responses, gaps, *rest, **kw)

    def finalize(self, t_start, t_end, responses, gaps, *rest, **kw):
        self.seen.append(np.array(responses, dtype=float))
        self.gaps.append(gaps)
        return super().finalize(t_start, t_end, responses, gaps, *rest, **kw)


def _controller(cfg):
    return RecordingController(
        "slo_feedback", cfg.control_interval, NUM_DISKS, cfg.threshold,
        cfg.spec, slo_target=cfg.slo_target,
    )


def _scenario(rate):
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=400, arrival_rate=rate, duration=2_400.0, seed=13
        )
    )
    cfg = StorageConfig(
        num_disks=NUM_DISKS,
        load_constraint=0.6,
        dpm_policy="slo_feedback",
        slo_target=60.0,
        control_interval=150.0,
        engine="fast",
    )
    mapping = allocate(
        workload.catalog, "round_robin", cfg, rate, num_disks=NUM_DISKS
    ).mapping(workload.catalog.n)
    return workload, cfg, mapping


@pytest.fixture(scope="module")
def scenario():
    return _scenario(1.5)


@pytest.fixture(scope="module")
def idle_scenario():
    """A load light enough that the disks idle between requests (the
    1.5/s scenario keeps every queue busy after its first gap)."""
    return _scenario(0.1)


def _config(cfg, scheduler):
    if scheduler is None:
        return cfg
    return cfg.with_overrides(
        scheduler=scheduler, scheduler_params={"max_hold": 30.0}
    )


def _run(scenario, scheduler, chunk):
    workload, cfg, mapping = scenario
    sizes = workload.catalog.sizes
    cfg = _config(cfg, scheduler)
    fleet = cfg.resolved_fleet(NUM_DISKS)
    sched = cfg.request_scheduler()
    if sched is not None:
        sched.reset(build_scheduling_setup(cfg, fleet, sizes, mapping))
    dpm = _controller(cfg)
    stream = workload.stream
    kernel = simulate_fast
    if chunk is not None:
        stream, kernel = stream.chunks(chunk), simulate_fast_chunked
    result = kernel(
        sizes, mapping, fleet, stream, workload.stream.duration,
        cache=LRUCache(20 * GiB), cache_hit_latency=0.001, dpm=dpm,
        scheduler=sched,
    )
    return result, dpm


@pytest.mark.parametrize("scheduler", [None, "slack_defer"])
@pytest.mark.parametrize("chunk", [None, 1, 37, 500])
def test_interval_responses_are_the_result_responses(scenario, scheduler, chunk):
    result, dpm = _run(scenario, scheduler, chunk)
    assert result.cache_stats.hits > 0
    assert len(dpm.seen) == len(dpm.records) > 2
    fed = np.concatenate(dpm.seen)
    np.testing.assert_array_equal(
        np.sort(fed), np.sort(result.response_times)
    )
    assert fed.size == result.completions
    for responses, record in zip(dpm.seen, dpm.records):
        assert responses.size == record.completions


def _per_disk(gaps):
    """One interval's gaps as per-disk ``(gap, threshold)`` arrays."""
    d, g, th = gaps
    return [(g[d == k], th[d == k]) for k in range(NUM_DISKS)]


@pytest.mark.parametrize("scheduler", [None, "slack_defer"])
def test_gap_columns_agree_across_chunkings_and_engines(
    idle_scenario, scheduler, monkeypatch
):
    """The fast kernel's gap columns are bit-identical for every chunking;
    an event-engine run of the same scenario hands over the same per-disk
    gap sequences, interval by interval."""
    runs = [
        _run(idle_scenario, scheduler, chunk)[1] for chunk in (None, 1, 37)
    ]
    ref = runs[0].gaps
    assert sum(len(g.disks) for g in ref) > 100
    for dpm in runs[1:]:
        assert len(dpm.gaps) == len(ref)
        for got, want in zip(dpm.gaps, ref):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    workload, cfg, mapping = idle_scenario
    cfg = _config(cfg, scheduler).with_overrides(
        engine="event", cache_policy="lru", cache_capacity=20 * GiB,
        cache_hit_latency=0.001,
    )
    event = _controller(cfg)
    monkeypatch.setattr(StorageConfig, "dpm_controller", lambda *_: event)
    StorageSystem(workload.catalog, mapping, cfg).run(workload.stream)
    assert len(event.gaps) == len(ref)
    for got, want in zip(event.gaps, ref):
        for (g_e, th_e), (g_f, th_f) in zip(_per_disk(got), _per_disk(want)):
            assert g_e.size == g_f.size
            np.testing.assert_allclose(g_e, g_f, rtol=0, atol=1e-9)
            np.testing.assert_allclose(th_e, th_f, rtol=0, atol=1e-9)
