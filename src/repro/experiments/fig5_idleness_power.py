"""Figure 5: power savings vs idleness threshold on the NERSC trace.

Paper's claims: Pack_Disk and Pack_Disk4 save ~85% of the always-spinning
cost *regardless of threshold* (their cold disks sleep through any
threshold), while RND's saving falls from ~90% at tiny thresholds to ~30%
at 2 h (its disks see just enough traffic that longer thresholds keep them
spinning).  The 16 GB LRU cache barely helps (hit ratio ~5.6%).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.trace_sweep import (
    CONFIG_NAMES,
    DEFAULT_THRESHOLD_HOURS,
    sweep_trace,
)
from repro.reporting.series import SeriesBundle

__all__ = ["run"]

PAPER_NOTE = (
    "paper: Pack_Disk(4) ~85% saving flat in threshold; RND falls from "
    "~90% to ~30% as the threshold grows; LRU adds little (Fig. 5)"
)


def run(
    scale: float = 1.0,
    seed: int = 20080531,
    threshold_hours: Sequence[float] = DEFAULT_THRESHOLD_HOURS,
    configs: Sequence[str] = CONFIG_NAMES,
) -> ExperimentResult:
    """Regenerate Figure 5's curves."""
    with Stopwatch() as timer:
        sweep = sweep_trace(threshold_hours, configs, scale, seed)
        bundle = SeriesBundle(
            title="Fig 5: power saving vs idleness threshold (NERSC trace)",
            x_label="idleness threshold (h)",
            y_label="power saving (fraction of always-spinning cost)",
        )
        for name in sweep.configs:
            for hours in sweep.threshold_hours:
                res = sweep.results[(name, hours)]
                bundle.add(name, hours, res.power_saving_normalized)

    result = ExperimentResult(
        name="fig5_idleness_power", wall_seconds=timer.elapsed
    )
    result.bundles["power_saving"] = bundle
    result.notes.append(PAPER_NOTE)
    result.notes.append(
        f"trace: {sweep.trace_stats['distinct_files']:.0f} files, "
        f"{sweep.trace_stats['requests']:.0f} requests, "
        f"{sweep.trace_stats['footprint_tb']:.1f} TB on "
        f"{sweep.num_disks} disks"
    )
    pack = bundle.series.get("Pack_Disk")
    rnd = bundle.series.get("RND")
    if pack and rnd:
        result.notes.append(
            f"measured: Pack_Disk saving spans "
            f"{min(pack.y):.2f}..{max(pack.y):.2f} (flat), RND spans "
            f"{min(rnd.y):.2f}..{max(rnd.y):.2f}"
        )
    cached = sweep.results.get(("Pack_Disk4+LRU", sweep.threshold_hours[0]))
    if cached is not None and cached.cache_stats is not None:
        result.notes.append(
            f"measured: LRU hit ratio {cached.cache_stats.hit_ratio:.3f} "
            "(paper: 0.056)"
        )
    return result
