"""Bench: the §3 algorithmic claim — O(n log n) vs the O(n^2) reference.

Times both implementations on identical instances (outputs are
bit-identical; only the data structures differ) and benchmarks the
oracle's heap kernel.  The allocation floor bounds ``allocate`` on the
canonical catalog by a fixed multiple of a fast-kernel run on the same
inputs.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import make_items, pack_disks, pack_disks_quadratic
from repro.experiments import ablations
from repro.system import StorageConfig, StorageSystem, allocate
from repro.workload.generator import SyntheticWorkloadParams, generate_workload


def _instance(n, seed=7):
    rng = np.random.default_rng(seed)
    return make_items(rng.uniform(0.001, 0.3, n), rng.uniform(0.001, 0.3, n))


def test_complexity_ablation(benchmark, report, scale):
    result = benchmark.pedantic(
        ablations.run_complexity, kwargs=dict(scale=scale), rounds=1, iterations=1
    )
    report(result)
    assert any("True" in n for n in result.notes)
    # The heap version must win at the largest measured size.
    runtime = result.bundles["runtime"]
    fast = runtime.series["pack_disks (heap)"].y[-1]
    slow = runtime.series["reference (scan)"].y[-1]
    assert fast < slow


def test_pack_disks_throughput_40k(benchmark):
    """Packing the paper's full 40000-item instance."""
    items = _instance(40_000)
    allocation = benchmark(pack_disks, items)
    assert allocation.num_items == 40_000


def test_quadratic_reference_2k(benchmark):
    """The reference at a size where it is still tolerable to run."""
    items = _instance(2_000)
    allocation = benchmark(pack_disks_quadratic, items)
    assert allocation.num_items == 2_000


def test_heap_build_and_drain(benchmark):
    """The keyed max-heap of the heap-based Pack_Disks oracle, which the
    tests keep beside the array-native packers."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "core"))
    from pack_oracle import MaxHeap

    keys = np.random.default_rng(1).uniform(0, 1, 50_000)

    def build_and_drain():
        heap = MaxHeap((k, i) for i, k in enumerate(keys))
        while heap:
            heap.pop()

    benchmark(build_and_drain)


#: Allocation/fast-run time ratio that ``allocate(catalog, "pack", ...)``
#: must stay under.  Over 8 runs on a 2-CPU x86-64 Linux host this test
#: measured 0.20-0.28 with Pack_Disks on item arrays (sorted runs plus
#: side heaps); the floor is the top of that range plus 25% headroom.
#: Interleaved with those runs, Pack_Disks on a ``heapq`` tuple heap over
#: one ``PackItem`` per file measured 1.27-1.58 (its floor was 2.05), and
#: with a hand-written pure-Python binary heap and items built from NumPy
#: scalars it measured 4.00-5.77 (8 runs) on the same host.  Since the
#: serve loop moved to C, the fast run is timed with the Python oracle
#: loop swapped in, as calibrated (8 runs: 0.20-0.27).
PACK_FLOOR = 0.35


def test_pack_floor(capsys, oracle_core):
    """``allocate`` on the canonical catalog (8,000 files from the catalog
    seed perfbench derives from its seed 0, R = 8 req/s, L = 0.7) vs the
    fixed fast path on a 4,000 s stream of the same inputs, timed on the
    same machine (interleaved best-of-7).  The fast run serves through the
    Python oracle loop the floor was calibrated on."""
    seed = int(np.random.SeedSequence(0).generate_state(2)[0])
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=4_000.0, seed=seed
        )
    )
    cfg = StorageConfig(num_disks=100, load_constraint=0.7, engine="fast")
    mapping = allocate(workload.catalog, "pack", cfg, 8.0).mapping(
        workload.catalog.n
    )

    # Interleaved, so host drift hits both sides alike.
    pack_s = fast_s = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        allocate(workload.catalog, "pack", cfg, 8.0)
        t1 = time.perf_counter()
        with oracle_core():
            StorageSystem(workload.catalog, mapping, cfg).run(workload.stream)
        t2 = time.perf_counter()
        pack_s = min(pack_s, t1 - t0)
        fast_s = min(fast_s, t2 - t1)
    ratio = pack_s / fast_s
    with capsys.disabled():
        print(
            f"\n[pack floor] {workload.catalog.n} files: allocate "
            f"{pack_s:.4f}s, fast run of {len(workload.stream)} requests "
            f"{fast_s:.4f}s (ratio {ratio:.2f}, floor {PACK_FLOOR})"
        )
    assert ratio < PACK_FLOOR
