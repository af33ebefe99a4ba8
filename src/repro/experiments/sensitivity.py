"""Sensitivity studies around the paper's fixed modelling choices.

Two knobs the paper holds constant:

* the **idleness threshold** on the *synthetic* workload (Figures 2-4 use
  the 53.3 s break-even; only the trace experiments sweep it) — this
  experiment sweeps it for both allocators at a fixed rate, showing the
  saving is threshold-robust for Pack_Disks but not for random placement
  even on Poisson (non-bursty) traffic;
* the **service-time model**: the paper's simulation uses
  ``l_i = r_i * s_i`` (pure transfer); our default adds the 12.66 ms
  seek + rotation overhead.  For multi-hundred-MB files the choice must
  not matter — this experiment quantifies the gap.

Allocations are computed once per study (they are shared across the grid)
and the simulations dispatch as mapping-based tasks through the shared
:class:`~repro.experiments.orchestrator.SweepRunner` — fingerprint-cached,
process-parallel under ``--workers N``.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult, Stopwatch, scaled_duration
from repro.experiments.orchestrator import (
    SimTask,
    default_runner,
    materialize_workload,
)
from repro.reporting.series import SeriesBundle
from repro.reporting.table import format_table
from repro.system.config import StorageConfig
from repro.system.runner import allocate
from repro.workload.generator import SyntheticWorkloadParams

__all__ = ["run_service_mode", "run_threshold"]


def run_threshold(
    scale: float = 1.0,
    seed: int = 20090525,
    rate: float = 4.0,
    thresholds: Sequence[float] = (10.0, 30.0, 53.3, 120.0, 300.0, 900.0),
    num_disks: int = 100,
    n_files: int = 40_000,
) -> ExperimentResult:
    """Power saving vs idleness threshold on the Table 1 workload."""
    with Stopwatch() as timer:
        params = SyntheticWorkloadParams(
            n_files=n_files, arrival_rate=rate,
            duration=scaled_duration(4_000.0, scale), seed=seed,
        )
        catalog, _ = materialize_workload(params)
        base = StorageConfig(num_disks=num_disks, load_constraint=0.7)
        pack_map = allocate(catalog, "pack", base, rate).mapping(catalog.n)
        rnd_map = allocate(
            catalog, "random", base, rate, rng=seed, num_disks=num_disks
        ).mapping(catalog.n)
        tasks = []
        for thr in thresholds:
            cfg = base.with_overrides(idleness_threshold=thr)
            for name, mapping in (("pack", pack_map), ("rnd", rnd_map)):
                tasks.append(
                    SimTask(
                        label=f"{name} thr={thr:g}",
                        workload=params,
                        config=cfg,
                        mapping=mapping,
                        num_disks=num_disks,
                        key=(name, thr),
                    )
                )
        by_key = default_runner().run_map(tasks)

        bundle = SeriesBundle(
            title=f"Saving and spin cycles vs idleness threshold (R={rate:g})",
            x_label="threshold (s)",
            y_label="value",
        )
        for thr in thresholds:
            packed = by_key[("pack", thr)]
            rnd = by_key[("rnd", thr)]
            bundle.add("saving pack-vs-rnd", thr, packed.power_saving_vs(rnd))
            bundle.add("pack saving (norm.)", thr, packed.power_saving_normalized)
            bundle.add("rnd saving (norm.)", thr, rnd.power_saving_normalized)
            bundle.add("pack spin-ups", thr, packed.spinups)
            bundle.add("rnd spin-ups", thr, rnd.spinups)

    result = ExperimentResult(name="sensitivity_threshold", wall_seconds=timer.elapsed)
    result.bundles["threshold"] = bundle
    result.notes.append(
        "on this busy Poisson workload random's per-disk gaps sit below "
        "break-even: short thresholds thrash (negative normalized saving) "
        "and its saving rises toward the no-spin-down plateau; Pack_Disks "
        "keeps a large positive margin at every threshold, peaking near "
        "the 53.3 s break-even"
    )
    return result


def run_service_mode(
    scale: float = 1.0,
    seed: int = 20090525,
    rate: float = 6.0,
    num_disks: int = 100,
    n_files: int = 40_000,
) -> ExperimentResult:
    """'full' (seek+rotation+transfer) vs the paper's 'transfer' load model."""
    with Stopwatch() as timer:
        params = SyntheticWorkloadParams(
            n_files=n_files, arrival_rate=rate,
            duration=scaled_duration(4_000.0, scale), seed=seed,
        )
        catalog, _ = materialize_workload(params)
        tasks = []
        alloc_disks = {}
        for mode in ("full", "transfer"):
            cfg = StorageConfig(
                num_disks=num_disks, load_constraint=0.7, service_mode=mode
            )
            alloc = allocate(catalog, "pack", cfg, rate)
            alloc_disks[mode] = alloc.num_disks
            tasks.append(
                SimTask(
                    label=f"pack {mode}",
                    workload=params,
                    config=cfg,
                    mapping=alloc.mapping(catalog.n),
                    num_disks=num_disks,
                    key=mode,
                )
            )
        by_key = default_runner().run_map(tasks)
        rows = []
        for mode in ("full", "transfer"):
            res = by_key[mode]
            rows.append(
                [
                    mode,
                    alloc_disks[mode],
                    f"{res.mean_power:.1f}",
                    f"{res.mean_response:.2f}",
                ]
            )
        table = format_table(
            rows,
            headers=["service model", "pack disks", "power (W)", "mean resp (s)"],
            title=f"Service-model sensitivity (R={rate:g})",
        )

    result = ExperimentResult(
        name="sensitivity_service_mode", wall_seconds=timer.elapsed
    )
    result.tables["service_mode"] = table
    result.notes.append(
        "paper uses l_i = r_i*s_i (transfer only); with 188 MB+ files the "
        "12.66 ms positioning overhead shifts loads <1%, so disk counts "
        "and curves must be nearly identical"
    )
    return result
