"""Controller telemetry conserves the run's responses.

The fast kernel computes each served request's completion and response
once, and both the controller's per-interval telemetry and the result's
response accounting read those values.  So over a controlled run in full
metrics mode the responses handed to ``advance``/``finalize`` are exactly
the result's responses — bit for bit, partitioned by interval — for any
chunking of the stream, with and without a request scheduler.
"""

import numpy as np
import pytest

from repro.cache import LRUCache
from repro.control import ThresholdController
from repro.sim.fastkernel import simulate_fast, simulate_fast_chunked
from repro.system import StorageConfig, allocate
from repro.system.scheduling import build_scheduling_setup
from repro.units import GiB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload

NUM_DISKS = 12


class RecordingController(ThresholdController):
    """A controller that keeps the responses of every interval it is
    handed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seen = []

    def advance(self, t_start, t_end, responses, *rest, **kw):
        self.seen.append(np.array(responses, dtype=float))
        return super().advance(t_start, t_end, responses, *rest, **kw)

    def finalize(self, t_start, t_end, responses, *rest, **kw):
        self.seen.append(np.array(responses, dtype=float))
        return super().finalize(t_start, t_end, responses, *rest, **kw)


@pytest.fixture(scope="module")
def scenario():
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=400, arrival_rate=1.5, duration=2_400.0, seed=13
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
        workload.catalog, "round_robin", cfg, 1.5, num_disks=NUM_DISKS
    ).mapping(workload.catalog.n)
    return workload, cfg, mapping


def _run(scenario, scheduler, chunk):
    workload, cfg, mapping = scenario
    sizes = workload.catalog.sizes
    if scheduler is not None:
        cfg = cfg.with_overrides(
            scheduler=scheduler, scheduler_params={"max_hold": 30.0}
        )
    fleet = cfg.resolved_fleet(NUM_DISKS)
    sched = cfg.request_scheduler()
    if sched is not None:
        sched.reset(build_scheduling_setup(cfg, fleet, sizes, mapping))
    dpm = RecordingController(
        "slo_feedback", cfg.control_interval, NUM_DISKS, cfg.threshold,
        cfg.spec, slo_target=cfg.slo_target,
    )
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
