"""Figure 3: response-time ratio of Pack_Disks to random allocation vs R.

Paper's claims: the ratio lies roughly between 0.5x and 2.5x (rising toward
~3.5x for L=80% at high R).  Below 1 means Pack_Disks responds *faster* —
at low rates random placement's disks keep spinning down and requests pay
the 15 s spin-up, while Pack_Disks' hot disks stay busy enough to stay up.
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
    "paper: response ratio ~0.5-2.5 (up to ~3.5 for L=80%), generally "
    "rising with R (Fig. 3)"
)


def run(
    scale: float = 1.0,
    seed: int = 20090525,
    rates: Sequence[float] = DEFAULT_RATES,
    loads: Sequence[float] = DEFAULT_LOADS,
    num_disks: int = 100,
    n_files: int = 40_000,
) -> ExperimentResult:
    """Regenerate Figure 3's curves (reuses Figure 2's memoized sweep)."""
    with Stopwatch() as timer:
        sweep = sweep_rates(rates, loads, scale, seed, num_disks, n_files)
        bundle = SeriesBundle(
            title="Fig 3: response-time ratio Pack_Disks / random vs R",
            x_label="R (arrivals/s)",
            y_label="mean response ratio",
        )
        for load in sweep.loads:
            label = f"L={int(load * 100)}%"
            for rate in sweep.rates:
                ratio = sweep.packed[(rate, load)].response_ratio_vs(
                    sweep.random[rate]
                )
                bundle.add(label, rate, ratio)

    result = ExperimentResult(
        name="fig3_response_ratio", wall_seconds=timer.elapsed
    )
    result.bundles["response_ratio"] = bundle
    result.notes.append(PAPER_NOTE)

    ys = [y for s in bundle.series.values() for y in s.y]
    result.notes.append(
        f"measured: ratio range {min(ys):.2f} .. {max(ys):.2f}"
    )
    return result
