"""Figure 6: response times vs idleness threshold on the NERSC trace.

Paper's claims: below a ~0.5 h threshold, random placement's mean response
exceeds 10 s (most requests hit spun-down disks and pay the 15 s spin-up);
beyond 0.5 h it stays under 10 s.  Pack_Disk4 achieves response similar to
or better than random despite saving far more power; plain Pack_Disk can be
slower when batched same-size requests pile on one disk (the effect
Pack_Disks_v was designed to fix).
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
    "paper: RND needs threshold >= 0.5 h to keep response <= 10 s; "
    "Pack_Disk4 similar or better than RND; Pack_Disk worse under batched "
    "arrivals (Fig. 6)"
)


def run(
    scale: float = 1.0,
    seed: int = 20080531,
    threshold_hours: Sequence[float] = DEFAULT_THRESHOLD_HOURS,
    configs: Sequence[str] = CONFIG_NAMES,
) -> ExperimentResult:
    """Regenerate Figure 6's curves (reuses Figure 5's memoized sweep)."""
    with Stopwatch() as timer:
        sweep = sweep_trace(threshold_hours, configs, scale, seed)
        bundle = SeriesBundle(
            title="Fig 6: response time vs idleness threshold (NERSC trace)",
            x_label="idleness threshold (h)",
            y_label="mean response (s)",
        )
        median_bundle = SeriesBundle(
            title="Fig 6 companion: median response vs idleness threshold",
            x_label="idleness threshold (h)",
            y_label="median response (s)",
        )
        for name in sweep.configs:
            for hours in sweep.threshold_hours:
                res = sweep.results[(name, hours)]
                bundle.add(name, hours, res.mean_response)
                median_bundle.add(name, hours, res.median_response)

    result = ExperimentResult(
        name="fig6_idleness_response", wall_seconds=timer.elapsed
    )
    result.bundles["response"] = bundle
    result.bundles["response_median"] = median_bundle
    result.notes.append(PAPER_NOTE)
    return result
