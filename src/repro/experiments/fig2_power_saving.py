"""Figure 2: ratio of power saving vs the arrival rate of file accesses.

Paper's claims: with R < 4 requests/s, Pack_Disks saves over 60% of the
power of random placement; the saving ratio decreases as R grows (more
disks must spin to carry the load) and increases with the load constraint L.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.rate_sweep import (
    DEFAULT_LOADS,
    DEFAULT_RATES,
    sweep_rates,
)
from repro.reporting.series import SeriesBundle

__all__ = ["run"]

PAPER_NOTE = (
    "paper: >60% saving for R<4 at every L; saving decreases with R and "
    "increases with L (Fig. 2)"
)


def run(
    scale: float = 1.0,
    seed: int = 20090525,
    rates: Sequence[float] = DEFAULT_RATES,
    loads: Sequence[float] = DEFAULT_LOADS,
    num_disks: int = 100,
    n_files: int = 40_000,
) -> ExperimentResult:
    """Regenerate Figure 2's curves."""
    with Stopwatch() as timer:
        sweep = sweep_rates(rates, loads, scale, seed, num_disks, n_files)
        bundle = SeriesBundle(
            title="Fig 2: ratio of power saving vs arrival rate R",
            x_label="R (arrivals/s)",
            y_label="power saving ratio (1 - E_pack/E_random)",
        )
        for load in sweep.loads:
            label = f"L={int(load * 100)}%"
            for rate in sweep.rates:
                saving = sweep.packed[(rate, load)].power_saving_vs(
                    sweep.random[rate]
                )
                bundle.add(label, rate, saving)

    result = ExperimentResult(name="fig2_power_saving", wall_seconds=timer.elapsed)
    result.bundles["power_saving"] = bundle
    result.notes.append(PAPER_NOTE)

    low_rate_ok = all(
        y > 0.6
        for label, series in bundle.series.items()
        for x, y in zip(series.x, series.y)
        if x < 4
    )
    result.notes.append(
        f"measured: saving at R<4 all above 60%: {low_rate_ok}"
    )
    return result
