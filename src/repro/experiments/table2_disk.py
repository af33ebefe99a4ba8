"""Table 2 / Figure 1: the disk characteristics and power-state machine.

Regenerates every row of Table 2 from :data:`repro.disk.specs.ST3500630AS`,
including the derived idleness threshold — the paper's 53.3 s is the
break-even time ``(E_down + E_up)/(P_idle - P_standby)``.
"""

from __future__ import annotations

from repro.disk.power import DiskState, PowerModel
from repro.disk.specs import ST3500630AS
from repro.experiments.common import ExperimentResult, Stopwatch
from repro.reporting.table import format_table

__all__ = ["run"]


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Regenerate Table 2 and the Figure 1 power table."""
    with Stopwatch() as timer:
        spec = ST3500630AS
        table2 = format_table(
            [[k, v] for k, v in spec.table2_rows().items()],
            headers=["Description", "Value"],
            title="Table 2: Hard Disk Characteristics (regenerated)",
        )
        power = PowerModel(spec)
        fig1 = format_table(
            [
                [state.value, f"{power.power(state):.1f} W"]
                for state in DiskState
            ]
            + [
                ["spin-up transition", f"{spec.spinup_time:.0f} s @ {spec.spinup_power:.0f} W"],
                ["spin-down transition", f"{spec.spindown_time:.0f} s @ {spec.spindown_power:.1f} W"],
            ],
            headers=["State / transition", "Power"],
            title="Fig 1: Power modes (regenerated)",
        )

    result = ExperimentResult(name="table2_disk", wall_seconds=timer.elapsed)
    result.tables["table2"] = table2
    result.tables["fig1"] = fig1
    threshold = spec.breakeven_threshold()
    result.notes.append(
        f"derived idleness threshold {threshold:.1f} s (paper: 53.3 s)"
    )
    return result
