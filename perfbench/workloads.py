"""The benchmark's four workloads: inputs from a seed, and the system run.

Every workload is an open-loop Poisson arrival stream in simulated time
over the ROADMAP's canonical catalog (8,000 Zipf files, R = 8 req/s,
100 disks packed with ``pack`` at L = 0.7).  On the host each one is a
batch job in one process.  ``README.md`` in this directory says why
each was chosen and which layers it exercises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.obs.trace import TraceRecorder
from repro.system import StorageConfig, StorageSystem, allocate
from repro.units import GiB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedWorkloadParams, generate_mixed_workload

__all__ = ["WORKLOADS", "Inputs", "build"]

N_FILES = 8_000
RATE = 8.0
#: Simulated seconds per workload.  ``readonly_fixed`` keeps the
#: canonical 40,000 s (about 320k requests); the slower paths get shorter
#: horizons so that one timed run stays well under a second of host time
#: and a run of the benchmark holds many repetitions.
HORIZONS = {
    "readonly_fixed": 40_000.0,
    "mixed_cached_traced": 10_000.0,
    "slo_ladder_streaming": 10_000.0,
    "event_oracle": 4_000.0,
}

BASE = StorageConfig(num_disks=100, load_constraint=0.7, engine="fast")

WORKLOADS = {
    "readonly_fixed": BASE,
    "mixed_cached_traced": BASE.with_overrides(
        cache_policy="lru",
        cache_capacity=512 * GiB,
        write_policy="spinning_worst_fit",
    ),
    "slo_ladder_streaming": BASE.with_overrides(
        dpm_ladder="drpm4",
        dpm_policy="slo_feedback",
        slo_target=60.0,
        control_interval=500.0,
        scheduler="slack_defer",
        scheduler_params={"max_hold": 30.0},
        metrics_mode="streaming",
        chunk_size=16_384,
    ),
    "event_oracle": BASE.with_overrides(engine="event"),
}

#: Workloads whose drives are the classic two-state model, so energy is
#: exactly sum(residency x spec power) over ``DiskState`` keys.
TWO_STATE = ("readonly_fixed", "mixed_cached_traced", "event_oracle")


@dataclass
class Inputs:
    """One workload's generated inputs and the timings of building them."""

    name: str
    config: StorageConfig
    catalog: object
    mapping: np.ndarray
    stream: object
    generate_s: float
    allocate_s: float
    setup_s: float

    def system(self, config: StorageConfig = None) -> StorageSystem:
        return StorageSystem(
            self.catalog, self.mapping, config or self.config
        )

    def observer(self):
        """A fresh observer for one run (the mixed workload traces)."""
        if self.name == "mixed_cached_traced":
            return TraceRecorder()
        return None

    def run(self, config: StorageConfig = None):
        """One untimed run on a fresh system."""
        return self.system(config).run(self.stream, observer=self.observer())

    def nospin_config(self) -> StorageConfig:
        """Figure 2's reference: same mapping, stream, engine, cache and
        write placement, with spin-down disabled and no ladder,
        controller or scheduler."""
        cfg = self.config
        return BASE.with_overrides(
            idleness_threshold=math.inf,
            engine=cfg.engine,
            cache_policy=cfg.cache_policy,
            cache_capacity=cfg.cache_capacity,
            write_policy=cfg.write_policy,
        )


def build(name: str, seed: int) -> Inputs:
    """Generate ``name``'s inputs from ``seed`` and time each step.

    ``setup_s`` covers workload generation, allocation and
    ``StorageSystem`` construction; the system itself is rebuilt per run
    by :meth:`Inputs.system`, so this construction only counts toward
    set-up.
    """
    config = WORKLOADS[name]
    cat_seed, mix_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(2)
    )
    horizon = HORIZONS[name]
    t0 = perf_counter()
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=N_FILES, arrival_rate=RATE, duration=horizon,
            seed=cat_seed,
        )
    )
    catalog, stream = workload.catalog, workload.stream
    if name == "mixed_cached_traced":
        # 20% writes, 30% of them creating files the run must place.
        catalog, stream = generate_mixed_workload(
            catalog,
            MixedWorkloadParams(
                write_fraction=0.2, new_file_fraction=0.3,
                arrival_rate=RATE, duration=horizon, seed=mix_seed,
            ),
        )
    t1 = perf_counter()
    mapping = allocate(workload.catalog, "pack", config, RATE).mapping(
        catalog.n
    )
    t2 = perf_counter()
    StorageSystem(catalog, mapping, config)
    t3 = perf_counter()
    return Inputs(
        name=name, config=config, catalog=catalog, mapping=mapping,
        stream=stream, generate_s=t1 - t0, allocate_s=t2 - t1,
        setup_s=t3 - t0,
    )
