"""Figure 4: power cost and response time vs the load constraint L (R = 6).

Paper's claims: raising L packs files onto fewer disks, so power falls
(roughly 900 W down toward 400 W on their axes) while response time rises
(a few seconds up to ~25 s) — the trade-off of the title.  We additionally
overlay the closed-form estimate from :mod:`repro.analysis.tradeoff`.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.tradeoff import tradeoff_curve
from repro.experiments.common import ExperimentResult, Stopwatch, scaled_duration
from repro.experiments.orchestrator import (
    SimTask,
    default_runner,
    materialize_workload,
)
from repro.reporting.series import SeriesBundle
from repro.system.config import StorageConfig
from repro.workload.generator import SyntheticWorkloadParams

__all__ = ["run"]

DEFAULT_LOADS = (0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)

PAPER_NOTE = (
    "paper: at R=6, increasing L monotonically lowers power and raises "
    "response time (Fig. 4)"
)


def run(
    scale: float = 1.0,
    seed: int = 20090525,
    rate: float = 6.0,
    loads: Sequence[float] = DEFAULT_LOADS,
    num_disks: int = 100,
    n_files: int = 40_000,
) -> ExperimentResult:
    """Regenerate Figure 4's two curves (plus analytic overlays)."""
    with Stopwatch() as timer:
        params = SyntheticWorkloadParams(
            n_files=n_files,
            arrival_rate=rate,
            duration=scaled_duration(4_000.0, scale),
            seed=seed,
        )
        # Shares the process-level cache with the serial sweep workers, so
        # the catalog for the analytic overlay is not synthesized twice.
        catalog, _ = materialize_workload(params)

        bundle = SeriesBundle(
            title=f"Fig 4: power and response time vs L (R={rate:g})",
            x_label="L (load constraint)",
            y_label="power (W) / response (s)",
        )
        disks_bundle = SeriesBundle(
            title="Disks used by Pack_Disks vs L",
            x_label="L (load constraint)",
            y_label="disks",
        )
        tasks = [
            SimTask(
                label=f"pack L={load:g}",
                workload=params,
                config=StorageConfig(num_disks=num_disks, load_constraint=load),
                policy="pack",
                arrival_rate=rate,
                num_disks=num_disks,
                key=load,
            )
            for load in loads
        ]
        by_load = default_runner().run_map(tasks)
        for load in loads:
            res = by_load[load]
            bundle.add("Power (W)", load, res.mean_power)
            bundle.add("Response (s)", load, res.mean_response)
            disks_bundle.add("pack_disks", load, int(res.extra["alloc_disks"]))

        # Analytic overlay (no simulation).
        for point in tradeoff_curve(
            catalog, rate,
            StorageConfig(num_disks=num_disks), load_grid=list(loads),
        ):
            bundle.add("Power analytic (W)", point.load_constraint, point.power_watts)
            bundle.add(
                "Response analytic (s)", point.load_constraint, point.response_seconds
            )

    result = ExperimentResult(name="fig4_tradeoff", wall_seconds=timer.elapsed)
    result.bundles["tradeoff"] = bundle
    result.bundles["disks"] = disks_bundle
    result.notes.append(PAPER_NOTE)

    power = bundle.series["Power (W)"].y
    resp = bundle.series["Response (s)"].y
    result.notes.append(
        f"measured: power {power[0]:.0f} W @L={loads[0]:g} -> "
        f"{power[-1]:.0f} W @L={loads[-1]:g}; response {resp[0]:.1f} s -> "
        f"{resp[-1]:.1f} s"
    )
    return result
