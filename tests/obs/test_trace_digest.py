"""Pinned digests of what a traced fast run hands its observer.

A mixed-workload run (20% writes, 30% of them new files placed by the run,
a 512 GiB LRU cache) on the classic two-state drive and on the ``drpm4``
ladder, whole and in chunks: the recorder's state spans (names and
times), cache events, placements and threshold pushes are hashed and held
to the digests recorded when the fast kernel named every span one by one.
Any change to how spans are drained, named or clipped moves them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.obs.trace import TraceRecorder
from repro.system import StorageConfig, StorageSystem, allocate
from repro.units import GiB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedWorkloadParams, generate_mixed_workload

BASE = StorageConfig(
    num_disks=40,
    load_constraint=0.7,
    engine="fast",
    cache_policy="lru",
    cache_capacity=512 * GiB,
    write_policy="spinning_worst_fit",
)

CASES = {
    "classic": {},
    "classic_chunked": {"chunk_size": 2_048},
    "drpm4_controlled": {
        "dpm_ladder": "drpm4",
        "dpm_policy": "slo_feedback",
        "slo_target": 60.0,
        "control_interval": 500.0,
    },
}

#: sha256 over the recorder's output per case (see :func:`_digest`).
DIGESTS = {
    "classic": (
        "1bc4a155acdce5f87441ede098f87216e6401ba4e5345ca54a2362b7950912e0"
    ),
    "classic_chunked": (
        "1e50e020c58a6886cdb9c69851d74ef9bb38a5d20a1dc9ed62c7ef685de0565b"
    ),
    "drpm4_controlled": (
        "496d650f758dc678a6650683550824ad2574b6405186a9ead6729f2fd2b1d895"
    ),
}


def _digest(recorder: TraceRecorder) -> str:
    h = hashlib.sha256()
    for disk, state, start, end in recorder.state_spans:
        h.update(f"{disk} {state} {start.hex()} {end.hex()}\n".encode())
    for time, kind, file_id in recorder.cache_events:
        h.update(f"c {float(time).hex()} {kind} {int(file_id)}\n".encode())
    for time, file_id, disk in recorder.placements:
        h.update(f"p {float(time).hex()} {int(file_id)} {int(disk)}\n".encode())
    for time, thresholds in recorder.threshold_events:
        h.update(f"t {float(time).hex()} {[float(x).hex() for x in thresholds]}\n".encode())
    return h.hexdigest()


def _traced(case: str) -> TraceRecorder:
    rate, horizon = 8.0, 3_000.0
    cat_seed, mix_seed = (
        int(s) for s in np.random.SeedSequence(29).generate_state(2)
    )
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=3_000, arrival_rate=rate, duration=horizon, seed=cat_seed
        )
    )
    catalog, stream = generate_mixed_workload(
        workload.catalog,
        MixedWorkloadParams(
            write_fraction=0.2, new_file_fraction=0.3,
            arrival_rate=rate, duration=horizon, seed=mix_seed,
        ),
    )
    config = BASE.with_overrides(**CASES[case])
    mapping = allocate(workload.catalog, "pack", config, rate).mapping(
        catalog.n
    )
    recorder = TraceRecorder()
    StorageSystem(catalog, mapping, config).run(stream, observer=recorder)
    return recorder


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_run_digest(case):
    recorder = _traced(case)
    assert recorder.state_spans and recorder.cache_events
    assert recorder.placements
    assert _digest(recorder) == DIGESTS[case]
