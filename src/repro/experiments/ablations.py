"""Ablations of the design choices the paper fixes or leaves open.

* **packing complexity** — the paper's §3 claim: the heap + two-stack data
  structure turns the O(n^2) algorithm of [3] into O(n log n) *without
  changing the output*;
* **packing quality** — disks used by each allocator against the continuous
  lower bound and the Theorem 1 guarantee;
* **size/popularity correlation** — the synthetic workload assumes hot
  files are small; the NERSC logs showed no correlation (§5.1); this
  ablation quantifies how much the saving depends on that assumption;
* **cache policy** — LRU vs LFU/FIFO/CLOCK hit ratios on the trace (§6
  future work);
* **size segregation** — §6 observes large files queued ahead of small hot
  files hurt response; packing size classes onto disjoint disks tests the
  suggested fix.

The simulation-backed ablations (correlation, cache policy, segregation)
dispatch their grid points through the shared
:class:`~repro.experiments.orchestrator.SweepRunner`; the purely
algorithmic ones (complexity, quality) run inline.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.core.baselines import (
    best_fit,
    first_fit,
    first_fit_decreasing,
    next_fit,
    random_allocation,
)
from repro.core.bounds import continuous_lower_bound, theorem1_guarantee
from repro.core.packing import pack_disks
from repro.core.reference import pack_disks_quadratic
from repro.errors import PackingError
from repro.experiments.common import ExperimentResult, Stopwatch, scaled_duration
from repro.experiments.orchestrator import (
    SimTask,
    default_runner,
    materialize_workload,
)
from repro.reporting.series import SeriesBundle
from repro.reporting.table import format_table
from repro.sim.rng import rng_from_seed
from repro.system.config import StorageConfig
from repro.system.runner import allocate, build_items
from repro.units import GiB, HOUR
from repro.workload.generator import SyntheticWorkloadParams
from repro.workload.nersc import NerscTraceParams

__all__ = [
    "run_cache_policies",
    "run_complexity",
    "run_correlation",
    "run_quality",
    "run_segregation",
]


def _random_items(n: int, rng, max_coord: float = 0.3):
    """Uniform random 2DVPP instances for the algorithmic ablations."""
    from repro.core.item import make_items

    sizes = rng.uniform(0.01, max_coord, size=n)
    loads = rng.uniform(0.01, max_coord, size=n)
    return make_items(sizes, loads)


def run_complexity(
    scale: float = 1.0,
    seed: int = 7,
    sizes: Sequence[int] = (250, 500, 1_000, 2_000, 4_000, 8_000),
) -> ExperimentResult:
    """Time pack_disks vs the O(n^2) reference; verify identical output."""
    with Stopwatch() as timer:
        rng = rng_from_seed(seed)
        bundle = SeriesBundle(
            title="Pack_Disks O(n log n) vs reference O(n^2) runtime",
            x_label="n (items)",
            y_label="seconds",
        )
        identical = True
        for n in sizes:
            n = max(10, int(n * scale))
            items = _random_items(n, rng)
            t0 = time.perf_counter()
            fast = pack_disks(items)
            t_fast = time.perf_counter() - t0
            t0 = time.perf_counter()
            slow = pack_disks_quadratic(items)
            t_slow = time.perf_counter() - t0
            bundle.add("pack_disks (heap, C)", n, t_fast)
            bundle.add("reference (scan)", n, t_slow)
            bundle.add("speedup", n, t_slow / t_fast if t_fast else float("nan"))
            identical &= [
                [i.index for i in d.items] for d in fast.disks
            ] == [[i.index for i in d.items] for d in slow.disks]

    result = ExperimentResult(name="ablation_complexity", wall_seconds=timer.elapsed)
    result.bundles["runtime"] = bundle
    result.notes.append(
        "paper §3: same packing policy, data structure drops cost from "
        "O(n^2) to O(n log n)"
    )
    result.notes.append(
        "pack_disks runs in the compiled core and the reference in Python, "
        "so the speedup column includes the language factor"
    )
    result.notes.append(f"measured: outputs bit-identical across sizes: {identical}")
    return result


def run_quality(
    scale: float = 1.0, seed: int = 7, n: int = 5_000
) -> ExperimentResult:
    """Disks used by each allocator vs the continuous lower bound."""
    with Stopwatch() as timer:
        rng = rng_from_seed(seed)
        n = max(50, int(n * scale))
        items = _random_items(n, rng)
        lb = continuous_lower_bound(items)
        guarantee = theorem1_guarantee(items)
        rows = []
        allocations = {
            "pack_disks": pack_disks(items),
            "first_fit_decreasing": first_fit_decreasing(items),
            "best_fit": best_fit(items),
            "first_fit": first_fit(items),
            "next_fit": next_fit(items),
            "random (2x LB pool)": random_allocation(
                items, num_disks=int(2 * np.ceil(lb)) + 1, rng=rng
            ),
        }
        for name, alloc in allocations.items():
            if not name.startswith("random"):
                # Random placement is load-oblivious by design (the paper's
                # baseline); only the fit heuristics promise feasibility.
                alloc.validate(items)
            rows.append(
                [name, alloc.num_disks, f"{alloc.num_disks / lb:.3f}"]
            )
        table = format_table(
            rows,
            headers=["allocator", "disks", "disks / LB"],
            title=(
                f"Packing quality, n={n}: LB={lb:.1f}, "
                f"Theorem-1 cap={guarantee:.1f}"
            ),
        )

    result = ExperimentResult(name="ablation_quality", wall_seconds=timer.elapsed)
    result.tables["quality"] = table
    pack_used = allocations["pack_disks"].num_disks
    result.notes.append(
        f"pack_disks used {pack_used} disks; Theorem 1 cap {guarantee:.1f}: "
        f"{'satisfied' if pack_used <= guarantee else 'VIOLATED'}"
    )
    return result


def run_correlation(
    scale: float = 1.0, seed: int = 20090525, rate: float = 6.0
) -> ExperimentResult:
    """Power saving under inverse / none / direct size-popularity correlation."""
    with Stopwatch() as timer:
        duration = scaled_duration(4_000.0, scale)
        n_files = max(1_000, int(40_000 * scale))
        infeasible = []
        feasible_cases = []
        tasks = []
        cfg = StorageConfig(num_disks=100, load_constraint=0.7)
        for idx, correlation in enumerate(("inverse", "none", "direct")):
            params = SyntheticWorkloadParams(
                n_files=n_files, arrival_rate=rate, duration=duration,
                correlation=correlation, seed=seed,
            )
            catalog, _ = materialize_workload(params)
            try:
                pack_alloc = allocate(catalog, "pack", cfg, rate)
            except PackingError:
                # Direct correlation makes the hottest file also the largest;
                # past a rate threshold a single file outgrows one disk's
                # bandwidth and needs replication (outside the paper's model).
                infeasible.append(correlation)
                continue
            rnd_alloc = allocate(
                catalog, "random", cfg, rate, rng=seed, num_disks=100
            )
            feasible_cases.append((idx, pack_alloc.num_disks))
            for name, alloc in (("pack", pack_alloc), ("rnd", rnd_alloc)):
                tasks.append(
                    SimTask(
                        label=f"{name} {correlation}",
                        workload=params,
                        config=cfg,
                        mapping=alloc.mapping(catalog.n),
                        num_disks=100,
                        key=(name, idx),
                    )
                )
        by_key = default_runner().run_map(tasks)

        bundle = SeriesBundle(
            title=f"Saving vs size-popularity correlation (R={rate:g})",
            x_label="case (0=inverse, 1=none, 2=direct)",
            y_label="power saving vs random",
        )
        feasible_by_idx = dict(feasible_cases)
        for idx in range(3):
            if idx not in feasible_by_idx:
                bundle.add("saving", idx, float("nan"))
                bundle.add("pack disks", idx, float("nan"))
                continue
            packed = by_key[("pack", idx)]
            rnd = by_key[("rnd", idx)]
            bundle.add("saving", idx, packed.power_saving_vs(rnd))
            bundle.add("pack disks", idx, feasible_by_idx[idx])

    result = ExperimentResult(
        name="ablation_correlation", wall_seconds=timer.elapsed
    )
    result.bundles["correlation"] = bundle
    result.notes.append(
        "paper §4 assumes inverse correlation; §5.1 found none in real "
        "logs — saving should persist in all three cases"
    )
    for correlation in infeasible:
        result.notes.append(
            f"case {correlation!r} infeasible at R={rate:g}: the hottest "
            "file saturates a single disk (would require replication)"
        )
    return result


def run_cache_policies(
    scale: float = 0.25,
    seed: int = 20080531,
    policies: Sequence[str] = ("lru", "lfu", "fifo", "clock"),
    cache_bytes: float = 16 * GiB,
) -> ExperimentResult:
    """Hit ratio and saving per cache policy on the NERSC-like trace."""
    with Stopwatch() as timer:
        params = NerscTraceParams(seed=seed)
        if scale < 1.0:
            params = params.scaled(scale)
        catalog, stream = materialize_workload(params)
        rate = stream.mean_rate
        base_cfg = StorageConfig(
            load_constraint=0.8, idleness_threshold=0.5 * HOUR
        )
        alloc = allocate(catalog, "pack_v4", base_cfg, rate)
        mapping = alloc.mapping(catalog.n)
        tasks = [
            SimTask(
                label=f"pack_v4+{policy or 'nocache'}",
                workload=params,
                config=base_cfg.with_overrides(
                    num_disks=alloc.num_disks,
                    cache_policy=policy,
                    cache_capacity=cache_bytes,
                ),
                mapping=mapping,
                num_disks=alloc.num_disks,
                key=policy or "nocache",
            )
            for policy in (None, *policies)
        ]
        by_key = default_runner().run_map(tasks)
        rows = []
        for policy in (None, *policies):
            res = by_key[policy or "nocache"]
            hit = (
                res.cache_stats.hit_ratio
                if res.cache_stats is not None
                else 0.0
            )
            rows.append(
                [
                    policy or "(none)",
                    f"{hit:.3f}",
                    f"{res.power_saving_normalized:.3f}",
                    f"{res.mean_response:.2f}",
                ]
            )
        table = format_table(
            rows,
            headers=["policy", "hit ratio", "power saving", "mean resp (s)"],
            title="Cache policy ablation (paper future work, §6)",
        )

    result = ExperimentResult(
        name="ablation_cache_policies", wall_seconds=timer.elapsed
    )
    result.tables["cache"] = table
    result.notes.append("paper: 16 GB LRU hit ratio 5.6%, little benefit")
    return result


#: Smallest catalog the segregation ablation draws.  At R = 8 req/s a
#: smaller Zipf catalog piles more load on its hottest file: 1,000 files
#: put 1.8 disks' worth of load on file 0, which no disk can hold, and
#: 2,000 files need 176 disks where the pool has 100.  10,000 files (the
#: scale-0.25 catalog) pack onto 82 disks at the default seed.
SEGREGATION_MIN_FILES = 10_000


def run_segregation(
    scale: float = 1.0,
    seed: int = 20090525,
    rate: float = 8.0,
    boundary_bytes: float = 2e9,
) -> ExperimentResult:
    """§6's suggestion: keep large files off the small-hot-file disks.

    Packs small and large size classes onto disjoint disk sets and compares
    response against plain Pack_Disks at a high arrival rate.
    """
    with Stopwatch() as timer:
        from repro.core.partitioned import (
            pack_disks_partitioned,
            size_class_classifier,
        )

        params = SyntheticWorkloadParams(
            n_files=max(SEGREGATION_MIN_FILES, int(40_000 * scale)),
            arrival_rate=rate,
            duration=scaled_duration(4_000.0, scale),
            seed=seed,
        )
        catalog, _ = materialize_workload(params)
        cfg = StorageConfig(num_disks=100, load_constraint=0.7)
        items = build_items(catalog, cfg, rate)

        plain = pack_disks(items)
        segregated = pack_disks_partitioned(
            items,
            size_class_classifier(boundary_bytes / cfg.usable_capacity),
        )

        by_key = default_runner().run_map(
            [
                SimTask(
                    label=alloc.algorithm,
                    workload=params,
                    config=cfg,
                    mapping=alloc.mapping(catalog.n),
                    num_disks=100,
                    key=name,
                )
                for name, alloc in (("plain", plain), ("seg", segregated))
            ]
        )
        res_plain = by_key["plain"]
        res_seg = by_key["seg"]
        table = format_table(
            [
                [
                    "pack_disks",
                    plain.num_disks,
                    f"{res_plain.mean_response:.2f}",
                    f"{res_plain.response_percentile(95):.2f}",
                    f"{res_plain.mean_power:.0f}",
                ],
                [
                    "pack_segregated",
                    segregated.num_disks,
                    f"{res_seg.mean_response:.2f}",
                    f"{res_seg.response_percentile(95):.2f}",
                    f"{res_seg.mean_power:.0f}",
                ],
            ],
            headers=["allocator", "disks", "mean resp", "p95 resp", "power W"],
            title=f"Size segregation at {boundary_bytes / 1e9:.0f} GB boundary, R={rate:g}",
        )

    result = ExperimentResult(
        name="ablation_segregation", wall_seconds=timer.elapsed
    )
    result.tables["segregation"] = table
    result.notes.append(
        "paper §6: separating large files from small hot files should cut "
        "queueing delay at some power cost"
    )
    return result
