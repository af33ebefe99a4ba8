"""Bench: out-of-core streaming — flat memory and kernel throughput.

Not a paper figure.  These guard the tentpole property of the chunked
fast kernel: peak RSS is bounded by the chunk size, not the workload
length.  Each memory measurement runs in a fresh subprocess (so one
python heap cannot pollute the next) generating arrivals with
``ChunkedPoissonStream`` and folding them through
``simulate_fast_chunked`` in ``metrics_mode="streaming"`` — at no point
does a full arrival array exist.  A 10x longer workload must stay within
1.5x the peak RSS of the short one.  The throughput case checks that
chunked execution of an in-memory stream costs at most 2x the
monolithic kernel (it is usually within ~20%).
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conftest import bench_scale
from repro.system import StorageConfig, StorageSystem, allocate
from repro.workload.generator import SyntheticWorkloadParams, generate_workload

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Runs in a fresh interpreter; prints a JSON line with peak RSS (KiB on
#: Linux via ``resource.getrusage``), wall time, and completion count.
_CHILD = """
import json, resource, sys, time
import numpy as np
from repro.disk.fleet import Fleet
from repro.disk.specs import ST3500630AS
from repro.sim.fastkernel import simulate_fast_chunked
from repro.workload.chunked import ChunkedPoissonStream

n_requests = int(sys.argv[1])
rate = 2000.0
duration = n_requests / rate
n_files, num_disks = 500, 20
rng = np.random.default_rng(0)
sizes = rng.uniform(1e6, 40e6, size=n_files)
pops = rng.dirichlet(np.ones(n_files))
mapping = np.arange(n_files, dtype=np.int64) % num_disks

stream = ChunkedPoissonStream(
    pops, rate=rate, duration=duration, chunk_size=65_536, seed=42
)
fleet = Fleet.uniform(ST3500630AS, threshold=15.0).resolve(num_disks)
t0 = time.perf_counter()
result = simulate_fast_chunked(
    sizes, mapping, fleet, stream, duration, metrics_mode="streaming",
)
wall = time.perf_counter() - t0
assert result.response_times is None
assert result.response_stats.count == result.completions
print(json.dumps({
    "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "wall_s": wall,
    "completions": result.completions,
    "arrivals": result.arrivals,
}))
"""


def _measure(n_requests: int) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(n_requests)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_streaming_memory_is_flat(capsys):
    """Peak RSS must not grow with workload length (1.5x tolerance)."""
    scale = bench_scale()
    small_n = max(100_000, int(1_000_000 * scale))
    large_n = small_n * 10
    small = _measure(small_n)
    large = _measure(large_n)
    assert small["arrivals"] > 0.9 * small_n
    assert large["arrivals"] > 0.9 * large_n
    ratio = large["rss_kib"] / max(small["rss_kib"], 1)
    with capsys.disabled():
        print(
            f"\n[streaming/rss] {small['arrivals']} reqs -> "
            f"{small['rss_kib'] / 1024:.1f} MiB, "
            f"{large['arrivals']} reqs -> "
            f"{large['rss_kib'] / 1024:.1f} MiB "
            f"({ratio:.2f}x for a 10x longer workload)"
        )
    assert ratio <= 1.5, (
        f"streaming RSS grew {ratio:.2f}x for a 10x longer workload"
    )


def test_chunked_throughput(capsys):
    """Chunked execution of an in-memory stream: at most 2x monolithic."""
    scale = bench_scale()
    workload = generate_workload(
        SyntheticWorkloadParams(
            n_files=4_000,
            arrival_rate=8.0,
            duration=max(600.0, 4_000.0 * scale),
            seed=7,
        )
    )
    cfg = StorageConfig(num_disks=100, load_constraint=0.7)
    mapping = allocate(workload.catalog, "pack", cfg, 8.0).mapping(
        workload.catalog.n
    )

    def timed(chunk_size, rounds=3):
        best = math.inf
        result = None
        system = StorageSystem(
            workload.catalog,
            mapping,
            cfg.with_overrides(engine="fast", chunk_size=chunk_size),
        )
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = system.run(workload.stream)
            best = min(best, time.perf_counter() - t0)
        return result, best

    mono, mono_s = timed(None)
    chunk, chunk_s = timed(65_536)
    mono_s = max(mono_s, 1e-9)

    assert np.array_equal(mono.response_times, chunk.response_times)
    assert mono.energy == chunk.energy
    assert mono.spinups == chunk.spinups
    with capsys.disabled():
        print(
            f"\n[streaming/throughput] {len(workload.stream)} requests: "
            f"monolithic {mono_s:.4f}s, chunked {chunk_s:.4f}s "
            f"({chunk_s / mono_s:.2f}x)"
        )
    assert chunk_s <= 2.0 * mono_s
