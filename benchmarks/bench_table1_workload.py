"""Bench: regenerate Table 1 (the synthetic workload parameters).

Times the full 40000-file catalog + request-stream synthesis (vectorized;
this is what every Figure 2-4 grid point pays).  The sampling floor bounds
the guide-table file-id sampler by a fixed fraction of
``Generator.choice`` on the canonical catalog.
"""

import math
import time

import numpy as np

from repro.experiments import table1_workload
from repro.workload import (
    SyntheticWorkloadParams,
    generate_workload,
    sample_file_ids,
)


def test_table1_regeneration(benchmark, report):
    result = benchmark.pedantic(table1_workload.run, rounds=1, iterations=1)
    report(result)
    assert "Table 1" in result.tables["table1"]


def test_workload_generation_throughput(benchmark):
    params = SyntheticWorkloadParams(
        n_files=40_000, arrival_rate=6.0, duration=4_000.0, seed=1
    )
    workload = benchmark(generate_workload, params)
    assert workload.catalog.n == 40_000


#: Guide-table sampler / ``Generator.choice`` time for the canonical
#: draws.  Top of 8 runs plus 25%: the runs measured 0.16-0.18 on a
#: 2-vCPU host (``choice`` 32-45 ms, the sampler 5.0-7.7 ms).  A bare
#: per-draw binary search would read about 1.0.
SAMPLING_FLOOR = 0.23


def test_sampling_floor(capsys):
    """``sample_file_ids`` vs ``Generator.choice`` for the canonical
    stream's draws (8,000-file Zipf catalog from the catalog seed
    perfbench derives from its seed 0, one draw per request of the
    40,000 s stream at R = 8 req/s), timed on the same machine
    (interleaved best-of-7).  Both sides draw from equal generators and
    must return the same ids."""
    seed = int(np.random.SeedSequence(0).generate_state(2)[0])
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=40_000.0, seed=seed
        )
    )
    pops = workload.catalog.popularities
    count = len(workload.stream)

    # Interleaved, so host drift hits both sides alike.
    sampler_s = choice_s = math.inf
    for rep in range(7):
        rng_a = np.random.default_rng(rep)
        rng_b = np.random.default_rng(rep)
        t0 = time.perf_counter()
        ids = sample_file_ids(pops, count, rng_a)
        t1 = time.perf_counter()
        ref = rng_b.choice(pops.size, size=count, p=pops / pops.sum())
        t2 = time.perf_counter()
        np.testing.assert_array_equal(ids, ref)
        sampler_s = min(sampler_s, t1 - t0)
        choice_s = min(choice_s, t2 - t1)
    ratio = sampler_s / choice_s
    with capsys.disabled():
        print(
            f"\n[sampling floor] {count} draws over {pops.size} files: "
            f"sampler {sampler_s:.4f}s, choice {choice_s:.4f}s "
            f"(ratio {ratio:.2f}, floor {SAMPLING_FLOOR})"
        )
    assert ratio < SAMPLING_FLOOR
