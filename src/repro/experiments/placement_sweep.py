"""Placement ablation: write-placement policy x write fraction x threshold.

The paper fixes one write-allocation rule (§1.1: best-fit among spinning
disks, worst-fit standby fallback) and never quantifies what that rule
buys.  This sweep does: every policy in the write-placement registry
(:mod:`repro.system.placement`) runs over mixed read/write streams at
several write fractions and idleness thresholds, so the energy/response
trade-off induced by placement alone is laid out as a grid.

Expected shape (the effects this experiment reproduces):

* energy-aware placement (``spinning_best_fit``/``fullest_spinning``)
  concentrates writes on already-spinning disks — fewer spin-ups, lower
  energy, but writes pile onto loaded disks and response suffers at high
  write fractions (the skew/latency coupling TimeTrader-style systems
  exploit);
* spreading placement (``round_robin``/``coldest_disk``) evens the load —
  better response under write pressure, paid for with spin-ups and
  standby-time lost (Behzadnia et al.'s energy-aware placement lever).

Every grid point dispatches through the shared
:class:`~repro.experiments.orchestrator.SweepRunner`, so ``--workers``
fan-out, ``--engine fast`` and the cross-session disk cache all apply;
fingerprints are salted with the policy name via
``StorageConfig.write_policy``.  Run from the CLI with::

    python -m repro run placement --scale 0.1 --workers 4 --engine fast
    python -m repro run placement --write-policy round_robin   # one policy
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.experiments.common import ExperimentResult, Stopwatch, scaled_duration
from repro.experiments.orchestrator import (
    InlineWorkload,
    SimTask,
    default_runner,
)
from repro.reporting.series import SeriesBundle
from repro.reporting.table import format_table
from repro.system.config import StorageConfig
from repro.system.placement import placement_policy_names
from repro.system.runner import allocate
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedWorkloadParams, generate_mixed_workload

__all__ = ["build_tasks", "run"]

#: Idleness thresholds swept (seconds); brackets the spec's ~53 s
#: break-even point from both sides.
DEFAULT_THRESHOLDS = (20.0, 60.0, 180.0)

#: Write fractions swept (the paper's §6 "various mixes").
DEFAULT_WRITE_FRACTIONS = (0.1, 0.3, 0.5)


def build_tasks(
    scale: float,
    seed: int,
    rate: float,
    policies: Sequence[str],
    write_fractions: Sequence[float],
    thresholds: Sequence[float],
    num_disks: int,
    load_constraint: float,
):
    """The grid as :class:`SimTask` descriptions (shared with the bench).

    One mixed workload per write fraction (shipped to pool workers once as
    an :class:`InlineWorkload`); new files enter the mapping as ``-1`` so
    the swept policy — not the packer — places them.
    """
    # Floor of 2000 files: smaller Zipf catalogs concentrate so much load
    # on the head file that no single disk can carry it at the default
    # rate (the packer rightly refuses).
    base = generate_workload(
        SyntheticWorkloadParams(
            n_files=max(2_000, int(20_000 * scale)),
            arrival_rate=rate,
            duration=scaled_duration(4_000.0, scale),
            seed=seed,
        )
    )
    cfg = StorageConfig(
        num_disks=num_disks, load_constraint=load_constraint
    )
    base_alloc = allocate(base.catalog, "pack", cfg, rate)
    base_mapping = base_alloc.mapping(base.catalog.n)

    tasks = []
    for wf in write_fractions:
        catalog, stream = generate_mixed_workload(
            base.catalog,
            MixedWorkloadParams(
                write_fraction=wf,
                new_file_fraction=0.6,
                arrival_rate=rate,
                duration=base.stream.duration,
                seed=seed + 1,
            ),
        )
        mapping = np.concatenate(
            [
                base_mapping,
                np.full(catalog.n - base.catalog.n, -1, dtype=np.int64),
            ]
        )
        workload = InlineWorkload(
            sizes=catalog.sizes,
            popularities=catalog.popularities,
            times=stream.times,
            file_ids=stream.file_ids,
            duration=stream.duration,
            kinds=stream.kinds,
        )
        for policy in policies:
            for threshold in thresholds:
                tasks.append(
                    SimTask(
                        label=f"{policy} wf={wf:g} th={threshold:g}",
                        workload=workload,
                        config=cfg.with_overrides(
                            write_policy=policy,
                            idleness_threshold=threshold,
                        ),
                        mapping=mapping,
                        num_disks=num_disks,
                        key=(policy, wf, threshold),
                    )
                )
    return tasks


def run(
    scale: float = 1.0,
    seed: int = 20090607,
    rate: float = 3.0,
    policies: Optional[Sequence[str]] = None,
    write_fractions: Sequence[float] = DEFAULT_WRITE_FRACTIONS,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    num_disks: int = 100,
    load_constraint: float = 0.7,
    write_policy: Optional[str] = None,
) -> ExperimentResult:
    """Sweep placement policy x write fraction x idleness threshold.

    ``policies`` defaults to the whole registry; ``write_policy`` (the
    CLI's ``--write-policy``) restricts the sweep to one named policy.
    """
    if policies is None:
        policies = placement_policy_names()
    if write_policy is not None:
        if write_policy not in placement_policy_names():
            raise ConfigError(
                f"unknown write placement policy {write_policy!r}; choose "
                f"from {placement_policy_names()}"
            )
        policies = (write_policy,)

    with Stopwatch() as timer:
        tasks = build_tasks(
            scale=scale,
            seed=seed,
            rate=rate,
            policies=policies,
            write_fractions=write_fractions,
            thresholds=thresholds,
            num_disks=num_disks,
            load_constraint=load_constraint,
        )
        by_key = default_runner().run_map(tasks)

        result = ExperimentResult(name="placement_sweep")
        mid_wf = write_fractions[len(write_fractions) // 2]
        for wf in write_fractions:
            bundle = SeriesBundle(
                title=(
                    f"Placement trade-off at write fraction {wf:g} "
                    f"(R={rate:g})"
                ),
                x_label="idleness threshold (s)",
                y_label="normalized power cost / mean response (s)",
            )
            for policy in policies:
                for threshold in thresholds:
                    res = by_key[(policy, wf, threshold)]
                    bundle.add(
                        f"{policy} power", threshold,
                        res.normalized_power_cost,
                    )
                    bundle.add(
                        f"{policy} resp", threshold, res.mean_response
                    )
            result.bundles[f"wf_{wf:g}"] = bundle

        rows = []
        mid_th = thresholds[len(thresholds) // 2]
        for policy in policies:
            res = by_key[(policy, mid_wf, mid_th)]
            rows.append(
                [
                    policy,
                    f"{res.normalized_power_cost:.3f}",
                    f"{res.mean_response:.2f}",
                    f"{res.response_percentile(95):.2f}",
                    res.spinups,
                ]
            )
        result.tables["policies"] = format_table(
            rows,
            headers=[
                "policy", "norm power", "mean resp", "p95 resp", "spinups",
            ],
            title=(
                f"Placement policies at wf={mid_wf:g}, "
                f"threshold={mid_th:g}s"
            ),
        )
        result.notes.append(
            "paper §1.1 fixes spinning_best_fit; the sweep quantifies the "
            "power/response trade-off of that choice against spreading "
            "placements (round_robin/coldest_disk wake standby disks)"
        )
        result.notes.append(
            f"{len(tasks)} grid points dispatched through the shared "
            "SweepRunner (policy-salted fingerprints, disk-cacheable)"
        )
    result.wall_seconds = timer.elapsed
    return result
