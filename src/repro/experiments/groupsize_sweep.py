"""§5.1's group-size study: Pack_Disk_v for v = 1..8 at a 0.5 h threshold.

Paper's claims: v = 4 is the sweet spot — grouping beyond 4 disks no longer
improves response time but dilutes the load concentration and so degrades
power saving.  (Pack_Disk_1 is plain Pack_Disks.)

Allocations are computed up front (each v resizes the pool, so the harness
needs the disk counts anyway) and the per-v simulations dispatch through
the shared :class:`~repro.experiments.orchestrator.SweepRunner`: points are
cached per fingerprint (in memory and on the disk-backed default cache) and
fan out across worker processes under ``--workers N``.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.orchestrator import (
    SimTask,
    default_runner,
    materialize_workload,
)
from repro.reporting.series import SeriesBundle
from repro.system.config import StorageConfig
from repro.system.runner import allocate
from repro.units import HOUR
from repro.workload.nersc import NerscTraceParams

__all__ = ["run"]

PAPER_NOTE = (
    "paper: v=4 ideal — response stops improving past v=4 while power "
    "saving keeps degrading (§5.1)"
)


def run(
    scale: float = 1.0,
    seed: int = 20080531,
    group_sizes: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    threshold_hours: float = 0.5,
) -> ExperimentResult:
    """Sweep the group size v over the NERSC-like trace."""
    with Stopwatch() as timer:
        params = NerscTraceParams(seed=seed)
        if scale < 1.0:
            params = params.scaled(scale)
        catalog, stream = materialize_workload(params)
        rate = stream.mean_rate
        base_cfg = StorageConfig(
            load_constraint=0.8, idleness_threshold=threshold_hours * HOUR
        )

        tasks = []
        disks_used = {}
        for v in group_sizes:
            policy = "pack" if v == 1 else f"pack_v{v}"
            alloc = allocate(catalog, policy, base_cfg, rate)
            disks_used[v] = alloc.num_disks
            tasks.append(
                SimTask(
                    label=f"v={v}",
                    workload=params,
                    config=base_cfg.with_overrides(num_disks=alloc.num_disks),
                    mapping=alloc.mapping(catalog.n),
                    num_disks=alloc.num_disks,
                    key=v,
                )
            )
        by_key = default_runner().run_map(tasks)

        bundle = SeriesBundle(
            title=f"Pack_Disk_v sweep at threshold {threshold_hours:g} h",
            x_label="v (group size)",
            y_label="value",
        )
        for v in group_sizes:
            res = by_key[v]
            bundle.add("power saving", v, res.power_saving_normalized)
            bundle.add("mean response (s)", v, res.mean_response)
            bundle.add("median response (s)", v, res.median_response)
            bundle.add("disks used", v, disks_used[v])

    result = ExperimentResult(name="groupsize_sweep", wall_seconds=timer.elapsed)
    result.bundles["sweep"] = bundle
    result.notes.append(PAPER_NOTE)
    return result
