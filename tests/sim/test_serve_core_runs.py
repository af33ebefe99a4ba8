"""Whole fast-kernel runs with the compiled walk vs the same runs with the
Python oracle pass swapped in (``serve_oracle.coupled_oracle``).

Every batch of a cache-less run, read-only or with writes, fixed,
controlled, chunked or scheduled, goes through the walk; every simulated
output — responses, per-disk energy, residencies, spin counts, the
controller's per-interval traces and an observer's recorded spans and
placements — must be bit-identical either way.
"""

import math

import numpy as np
import pytest

import serve_oracle as oracle
from repro.obs.trace import TraceRecorder
from repro.system import StorageConfig, StorageSystem, allocate
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedWorkloadParams, generate_mixed_workload

BASE = StorageConfig(num_disks=24, load_constraint=0.7, engine="fast")

CONFIGS = {
    "fixed": {},
    "threshold_0": {"idleness_threshold": 0.0},
    "drpm4": {"dpm_ladder": "drpm4"},
    "nap_chunked": {"dpm_ladder": "nap", "chunk_size": 997},
    "fleet": {"fleet": "mixed_generation"},
    "controlled": {
        "dpm_ladder": "drpm4", "dpm_policy": "slo_feedback",
        "slo_target": 30.0, "control_interval": 200.0,
    },
    "scheduled_streaming": {
        "dpm_policy": "slo_feedback", "slo_target": 30.0,
        "control_interval": 200.0, "scheduler": "slack_defer",
        "scheduler_params": {"max_hold": 20.0},
        "metrics_mode": "streaming", "chunk_size": 1500,
    },
}


@pytest.fixture(scope="module")
def inputs():
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=1_500, arrival_rate=6.0, duration=2_000.0, seed=11
        )
    )
    catalog, mixed = generate_mixed_workload(
        workload.catalog,
        MixedWorkloadParams(
            write_fraction=0.2, new_file_fraction=0.3, arrival_rate=6.0,
            duration=2_000.0, seed=12,
        ),
    )
    mapping = allocate(workload.catalog, "pack", BASE, 6.0).mapping(catalog.n)
    return workload, catalog, mixed, mapping


def _outputs(result, recorder):
    dpm = result.extra.get("dpm")
    return (
        None if result.response_times is None
        else result.response_times.tobytes(),
        result.response_stats,
        result.energy_per_disk.tobytes(),
        sorted((str(k), v) for k, v in result.state_durations.items()),
        result.spinups, result.spindowns, result.spinups_per_disk.tobytes(),
        result.requests_per_disk.tobytes(), result.final_mapping.tobytes(),
        None if dpm is None else repr(dpm),
        recorder.state_spans, recorder.placements, recorder.threshold_events,
    )


@pytest.mark.parametrize("writes", [False, True])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_matches_oracle_core(inputs, name, writes):
    workload, catalog, mixed, mapping = inputs
    cfg = BASE.with_overrides(**CONFIGS[name])
    stream = mixed if writes else workload.stream
    cat = catalog if writes else workload.catalog
    maps = mapping if writes else mapping[: workload.catalog.n]

    def run():
        recorder = TraceRecorder()
        result = StorageSystem(cat, maps, cfg).run(stream, observer=recorder)
        return _outputs(result, recorder)

    compiled = run()
    with oracle.coupled_oracle():
        python = run()
    assert compiled == python
    assert compiled[4] > 0 or CONFIGS[name].get("idleness_threshold") == math.inf
    assert compiled[-3]  # the observer saw spans


def test_bare_run_matches_oracle_core(inputs):
    """No observer: a fixed run logs no spans at all."""
    workload, _, _, mapping = inputs
    system = StorageSystem(
        workload.catalog, mapping[: workload.catalog.n], BASE
    )
    compiled = system.run(workload.stream)
    with oracle.coupled_oracle():
        python = system.run(workload.stream)
    assert compiled.response_times.tobytes() == python.response_times.tobytes()
    assert compiled.energy_per_disk.tobytes() == python.energy_per_disk.tobytes()
    assert compiled.state_durations == python.state_durations
    assert np.array_equal(compiled.spinups_per_disk, python.spinups_per_disk)
