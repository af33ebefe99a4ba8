"""SLO frontier: online DPM policies vs. static thresholds across load.

The paper sweeps the idleness threshold *offline* and reads the trade-off
from the resulting curves; a real system has to pick its operating point
**online**, against a response-time service-level objective.  This
experiment maps that decision surface: for every load level it runs

* a grid of **static thresholds** (the paper's policy at several fixed
  operating points, ``dpm_policy="fixed"``),
* the **adaptive** policies (``adaptive_timeout``,
  ``exponential_predictive``) that steer per-disk thresholds from
  observed idle gaps, and
* the **SLO-feedback controller** (``slo_feedback``) at several p95
  targets — tightening thresholds to save power whenever the running P²
  percentile estimate shows slack, relaxing them on violation,

and reports each run's (power saving, p95 response) point: the frontier
a threshold controller navigates at run time.

``--dpm-ladder NAME`` adds a **multi-state ladder axis** (presets in
:data:`repro.disk.dpm.DPM_LADDERS`: ``two_state``, ``nap``, ``drpm4``):
every grid cell is re-run with ``StorageConfig(dpm_ladder=NAME)`` — the
static thresholds scale the ladder's descent schedule, the adaptive and
SLO-feedback policies steer it online — and the report compares the
ladder frontier against the two-state one.  The headline ladder check:
at least one ladder cell *beats the best two-state static threshold at
equal-or-better p95* (intermediate rungs buy power saving on
medium-length gaps that a single threshold must either idle through or
pay a full spin-up for).

``--scheduler NAME`` adds a **request-scheduler axis** (registry in
:mod:`repro.system.scheduling`: ``slack_defer``, ``batch_release``,
``spinup_coalesce``): every cell of the two-state grid is re-run with
``StorageConfig(scheduler=NAME)``, so arrivals are held back to lengthen
idle gaps and coalesce wake-ups.  ``slack_defer`` composes with the
feedback controller — it reads the controller's live percentile estimate
and stops deferring under SLO stress, and on the feedback cells it
inherits the cell's ``slo_target`` (without an explicit ``target`` param
it rides *only* on those cells).  The headline scheduler check: some
scheduled cell — the acceptance pair is ``slack_defer`` +
``slo_feedback`` — saves strictly more power than the best
scheduler-less cell at equal-or-better p95.

The workload deliberately spreads load (round-robin placement, small
files): under the paper's packed allocations the threshold is nearly
free — hot disks never idle, cold disks never wake (Figures 2-6 show
exactly that) — whereas spread traffic puts a real price on every
threshold choice, which is the regime where online control earns its
keep.  The headline check, reported in the notes: for at least one
(load, target) cell the feedback controller *meets* a p95 target that
every static threshold at equal-or-better power saving *misses* — the
static grid quantizes the frontier, the controller lands between its
points.

Every grid point dispatches through the shared
:class:`~repro.experiments.orchestrator.SweepRunner` (``--workers``,
``--engine fast`` and the cross-session disk cache apply; fingerprints
are salted with the DPM fields via the config dataclass).  Run from the
CLI with::

    python -m repro run slo-frontier --scale 0.25 --workers 4 --engine fast
    python -m repro run slo-frontier --dpm-policy slo_feedback --slo-target 18
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.disk.dpm import dpm_ladder_names
from repro.errors import ConfigError
from repro.experiments.common import ExperimentResult, Stopwatch, scaled_duration
from repro.experiments.orchestrator import (
    InlineWorkload,
    SimTask,
    default_runner,
)
from repro.reporting.ascii_plot import ascii_plot
from repro.reporting.series import SeriesBundle
from repro.reporting.table import format_table
from repro.system.config import StorageConfig
from repro.system.runner import allocate
from repro.system.scheduling import (
    normalize_scheduler_params,
    request_scheduler_names,
)
from repro.units import MB
from repro.workload.generator import SyntheticWorkloadParams, generate_workload

__all__ = ["build_tasks", "run"]

#: Static thresholds swept (seconds): deliberately coarse — bracketing the
#: spec's ~53 s break-even without hitting it — so the quantization cost
#: of a static grid is visible next to the online controller.
DEFAULT_STATIC_THRESHOLDS = (15.0, 60.0, 240.0)

#: Arrival rates swept (req/s over the whole array).  Low rates over the
#: spread placement give every disk sparse traffic — the regime where the
#: threshold choice prices real power against real tail latency.
DEFAULT_RATES = (0.5, 1.0)

#: p95 response-time targets (seconds) handed to the feedback controller.
#: Chosen inside the contested band: above the no-spin-down tail, below
#: the spin-up-dominated tail of an aggressive threshold.
DEFAULT_SLO_TARGETS = (12.0, 18.0, 24.0)

#: Adaptive (target-free) policies included once per load level.
DEFAULT_DYNAMIC_POLICIES = ("adaptive_timeout", "exponential_predictive")


def build_tasks(
    scale: float,
    seed: int,
    rates: Sequence[float],
    static_thresholds: Sequence[float],
    slo_targets: Sequence[float],
    dynamic_policies: Sequence[str],
    num_disks: int,
    load_constraint: float,
    dpm_ladder: Optional[str] = None,
    scheduler: Optional[str] = None,
    scheduler_params=(),
):
    """The grid as :class:`SimTask` descriptions (shared with the bench).

    One workload per rate (shipped to pool workers once as an
    :class:`InlineWorkload`), mapped round-robin across the full pool;
    grid keys are ``(policy, rate, threshold_or_None, target_or_None,
    ladder_or_None, scheduler_or_None)``.  With ``dpm_ladder`` set, every
    cell is duplicated on the ladder axis (plus a ladder cell at the
    ladder's *native* descent schedule, ``threshold=None``).  With
    ``scheduler`` set, the *two-state* cells are duplicated on the
    request-scheduler axis (``slack_defer`` without an explicit
    ``target`` param rides only on the feedback cells, which feed it
    their ``slo_target``).
    """
    duration = scaled_duration(4_000.0, scale)
    # Decide ~10 times per run regardless of scale, with a floor so tiny
    # smoke runs still cross at least a few control boundaries.
    control_interval = max(50.0, duration / 10.0)
    base_cfg = StorageConfig(
        num_disks=num_disks,
        load_constraint=load_constraint,
        control_interval=control_interval,
    )

    tasks = []
    ladders: Sequence[Optional[str]] = (
        (None,) if dpm_ladder is None else (None, dpm_ladder)
    )
    # slack_defer needs a response-time target; without an explicit
    # `target` param only the feedback cells (whose slo_target feeds it
    # at reset) can carry it.
    sched_needs_target = scheduler == "slack_defer" and "target" not in dict(
        normalize_scheduler_params(scheduler_params)
    )
    for rate in rates:
        wl = generate_workload(
            SyntheticWorkloadParams(
                n_files=max(2_000, int(20_000 * scale)),
                arrival_rate=rate,
                duration=duration,
                seed=seed,
                s_max=500 * MB,
                s_min=20 * MB,
            )
        )
        mapping = allocate(
            wl.catalog, "round_robin", base_cfg, rate, num_disks=num_disks
        ).mapping(wl.catalog.n)
        workload = InlineWorkload(
            sizes=wl.catalog.sizes,
            popularities=wl.catalog.popularities,
            times=wl.stream.times,
            file_ids=wl.stream.file_ids,
            duration=wl.stream.duration,
        )

        def add(label, config, key):
            tasks.append(
                SimTask(
                    label=label,
                    workload=workload,
                    config=config,
                    mapping=mapping,
                    num_disks=num_disks,
                    key=key,
                )
            )

        for ladder in ladders:
            # The scheduler axis rides only on the two-state grid — a
            # ladder x scheduler product would square the cell count for
            # a comparison neither headline check needs.
            scheds: Sequence[Optional[str]] = (
                (None,)
                if ladder is not None or scheduler is None
                else (None, scheduler)
            )
            cfg = (
                base_cfg if ladder is None
                else base_cfg.with_overrides(dpm_ladder=ladder)
            )
            tag = "" if ladder is None else f" [{ladder}]"
            for sched in scheds:
                if sched is None:
                    scfg, stag = cfg, tag
                else:
                    scfg = cfg.with_overrides(
                        scheduler=sched, scheduler_params=scheduler_params
                    )
                    stag = f"{tag} +{sched}"
                unfed = sched is not None and sched_needs_target
                if ladder is not None:
                    # The ladder's own envelope schedule, unscaled.
                    add(
                        f"fixed native{stag} R={rate:g}",
                        scfg,
                        ("fixed", rate, None, None, ladder, sched),
                    )
                if not unfed:
                    for threshold in static_thresholds:
                        add(
                            f"fixed th={threshold:g}{stag} R={rate:g}",
                            scfg.with_overrides(idleness_threshold=threshold),
                            ("fixed", rate, threshold, None, ladder, sched),
                        )
                    for policy in dynamic_policies:
                        add(
                            f"{policy}{stag} R={rate:g}",
                            scfg.with_overrides(dpm_policy=policy),
                            (policy, rate, None, None, ladder, sched),
                        )
                for target in slo_targets:
                    add(
                        f"slo_feedback p95<={target:g}s{stag} R={rate:g}",
                        scfg.with_overrides(
                            dpm_policy="slo_feedback",
                            slo_target=target,
                            slo_percentile=95.0,
                        ),
                        ("slo_feedback", rate, None, target, ladder, sched),
                    )
    return tasks


def _saving(result) -> float:
    return 1.0 - result.normalized_power_cost


def run(
    scale: float = 1.0,
    seed: int = 20090607,
    rates: Sequence[float] = DEFAULT_RATES,
    static_thresholds: Sequence[float] = DEFAULT_STATIC_THRESHOLDS,
    slo_targets: Sequence[float] = DEFAULT_SLO_TARGETS,
    dynamic_policies: Sequence[str] = DEFAULT_DYNAMIC_POLICIES,
    num_disks: int = 100,
    load_constraint: float = 0.6,
    dpm_policy: Optional[str] = None,
    slo_target: Optional[float] = None,
    dpm_ladder: Optional[str] = None,
    scheduler: Optional[str] = None,
    scheduler_params=(),
) -> ExperimentResult:
    """Sweep DPM policy x load x SLO target (x ladder); report the frontier.

    ``dpm_policy`` (the CLI's ``--dpm-policy``) restricts the dynamic
    policies to one name (``fixed`` keeps only the static grid);
    ``slo_target`` (``--slo-target``) restricts the feedback targets to
    one value; ``dpm_ladder`` (``--dpm-ladder``) duplicates the grid on a
    multi-state ladder axis and reports where the ladder beats the best
    two-state static threshold at equal-or-better p95; ``scheduler``
    (``--scheduler``) duplicates the two-state grid on a request-scheduler
    axis and reports where a scheduled cell strictly dominates the best
    scheduler-less cell at equal-or-better p95.
    """
    if dpm_ladder is not None and dpm_ladder not in dpm_ladder_names():
        raise ConfigError(
            f"unknown --dpm-ladder {dpm_ladder!r}; choose from "
            f"{dpm_ladder_names()}"
        )
    if scheduler is not None and scheduler not in request_scheduler_names():
        raise ConfigError(
            f"unknown --scheduler {scheduler!r}; choose from "
            f"{request_scheduler_names()}"
        )
    if scheduler == "fifo":
        # fifo is the baseline itself; a "+fifo" axis would duplicate
        # every cell bit-for-bit and report a vacuous comparison.
        raise ConfigError(
            "--scheduler fifo is the scheduler-less baseline; pick a "
            "deferring scheduler "
            f"{tuple(n for n in request_scheduler_names() if n != 'fifo')}"
        )
    if dpm_policy is not None:
        valid = ("fixed", "slo_feedback") + tuple(DEFAULT_DYNAMIC_POLICIES)
        if dpm_policy not in valid:
            raise ConfigError(
                f"unknown --dpm-policy {dpm_policy!r}; choose from {valid}"
            )
        if dpm_policy == "fixed":
            dynamic_policies, slo_targets = (), ()
        elif dpm_policy == "slo_feedback":
            dynamic_policies = ()
        else:
            dynamic_policies, slo_targets = (dpm_policy,), ()
    if slo_target is not None:
        if not slo_targets:
            raise ConfigError(
                "--slo-target only applies to the slo_feedback grid, "
                f"which --dpm-policy {dpm_policy!r} excludes"
            )
        slo_targets = (float(slo_target),)

    with Stopwatch() as timer:
        tasks = build_tasks(
            scale=scale,
            seed=seed,
            rates=rates,
            static_thresholds=static_thresholds,
            slo_targets=slo_targets,
            dynamic_policies=dynamic_policies,
            num_disks=num_disks,
            load_constraint=load_constraint,
            dpm_ladder=dpm_ladder,
            scheduler=scheduler,
            scheduler_params=scheduler_params,
        )
        by_key = default_runner().run_map(tasks)

        result = ExperimentResult(name="slo_frontier")
        demonstrations = []
        ladder_demonstrations = []
        scheduler_demonstrations = []
        for rate in rates:
            statics = {
                th: by_key[("fixed", rate, th, None, None, None)]
                for th in static_thresholds
            }

            bundle = SeriesBundle(
                title=f"SLO frontier at R={rate:g} (x=p95, y=power saving)",
                x_label="p95 response (s)",
                y_label="normalized power saving",
            )
            curves = {}
            rows = []

            #: (label, p95, saving) of scheduler-less two-state cells —
            #: the rival pool for the scheduler demonstration — and of
            #: the scheduled cells claiming to dominate them.
            plain_cells = []
            sched_cells = []

            def account(label, res, target=None, bucket=None):
                p95 = res.p95_response
                saving = _saving(res)
                if bucket is not None:
                    bucket.append((label, p95, saving))
                bundle.add(label, p95, saving)
                curves.setdefault(label.split(" ")[0], ([], []))
                xs, ys = curves[label.split(" ")[0]]
                xs.append(p95)
                ys.append(saving)
                met = "-" if target is None else (
                    "yes" if p95 <= target else "NO"
                )
                rows.append(
                    [
                        label,
                        f"{saving:.3f}",
                        f"{p95:.2f}",
                        f"{res.p99_response:.2f}",
                        f"{res.mean_response:.2f}",
                        res.spinups,
                        met,
                    ]
                )

            for th, res in statics.items():
                account(f"fixed th={th:g}", res, bucket=plain_cells)
            for policy in dynamic_policies:
                account(
                    policy,
                    by_key[(policy, rate, None, None, None, None)],
                    bucket=plain_cells,
                )
            ladder_cells = []
            if dpm_ladder is not None:
                for th in (None,) + tuple(static_thresholds):
                    res = by_key[("fixed", rate, th, None, dpm_ladder, None)]
                    label = (
                        f"fixed native [{dpm_ladder}]" if th is None
                        else f"fixed th={th:g} [{dpm_ladder}]"
                    )
                    account(label, res)
                    ladder_cells.append((label, res))
                for policy in dynamic_policies:
                    res = by_key[(policy, rate, None, None, dpm_ladder, None)]
                    account(f"{policy} [{dpm_ladder}]", res)
                    ladder_cells.append((f"{policy} [{dpm_ladder}]", res))
            if scheduler is not None:
                # Scheduled static/dynamic cells (absent when slack_defer
                # has no target to read outside the feedback cells).
                for th in static_thresholds:
                    res = by_key.get(
                        ("fixed", rate, th, None, None, scheduler)
                    )
                    if res is not None:
                        account(
                            f"fixed th={th:g} +{scheduler}",
                            res,
                            bucket=sched_cells,
                        )
                for policy in dynamic_policies:
                    res = by_key.get(
                        (policy, rate, None, None, None, scheduler)
                    )
                    if res is not None:
                        account(
                            f"{policy} +{scheduler}", res, bucket=sched_cells
                        )
            for target in slo_targets:
                fb = by_key[("slo_feedback", rate, None, target, None, None)]
                account(
                    f"slo_feedback p95<={target:g}",
                    fb,
                    target=target,
                    bucket=plain_cells,
                )
                if scheduler is not None:
                    sfb = by_key[
                        ("slo_feedback", rate, None, target, None, scheduler)
                    ]
                    account(
                        f"slo_feedback p95<={target:g} +{scheduler}",
                        sfb,
                        target=target,
                        bucket=sched_cells,
                    )

                # The headline comparison: does the controller meet a
                # target that every static threshold at equal-or-better
                # power saving misses?
                fb_saving = _saving(fb)
                met = fb.p95_response <= target
                rivals = [
                    (th, res)
                    for th, res in statics.items()
                    if _saving(res) >= fb_saving - 1e-12
                ]
                meeting = [
                    (_saving(res), th)
                    for th, res in statics.items()
                    if res.p95_response <= target
                ]
                best_static = max(meeting)[0] if meeting else math.nan
                if met and all(
                    res.p95_response > target for _, res in rivals
                ):
                    demonstrations.append(
                        f"R={rate:g}, p95<={target:g}s: slo_feedback meets "
                        f"the target at saving {fb_saving:.3f} while every "
                        f"static threshold with >= that saving misses it "
                        f"(best target-meeting static saves "
                        f"{best_static:.3f})"
                    )
                if dpm_ladder is not None:
                    lfb = by_key[
                        ("slo_feedback", rate, None, target, dpm_ladder, None)
                    ]
                    account(
                        f"slo_feedback p95<={target:g} [{dpm_ladder}]",
                        lfb,
                        target=target,
                    )

            # The ladder headline: a cell on the ladder frontier that
            # saves strictly more power than the *best* two-state static
            # threshold among those with equal-or-better p95 — the
            # intermediate rungs monetize the medium gaps a single
            # threshold cannot.
            if dpm_ladder is not None:
                for label, res in ladder_cells:
                    p95 = res.p95_response
                    saving = _saving(res)
                    rivals = [
                        (th, s)
                        for th, s in statics.items()
                        if s.p95_response <= p95 * 1.02 + 0.25
                    ]
                    if not rivals:
                        continue
                    best_th, best = max(
                        rivals, key=lambda pair: _saving(pair[1])
                    )
                    if saving > _saving(best) + 1e-9:
                        ladder_demonstrations.append(
                            f"R={rate:g}: {label} saves {saving:.3f} at "
                            f"p95={p95:.2f}s — beating the best two-state "
                            f"static at equal-or-better p95 (th={best_th:g}"
                            f", saving {_saving(best):.3f}, "
                            f"p95={best.p95_response:.2f}s)"
                        )

            # The scheduler headline: a scheduled cell that saves strictly
            # more power than the *best* scheduler-less cell among those
            # with equal-or-better p95 — held-back arrivals lengthen the
            # idle gaps and coalesce the wake-ups the baseline pays for
            # one at a time.
            if scheduler is not None:
                for label, p95, saving in sched_cells:
                    rivals = [
                        cell
                        for cell in plain_cells
                        if cell[1] <= p95 * 1.02 + 0.25
                    ]
                    if not rivals:
                        continue
                    best_label, best_p95, best_saving = max(
                        rivals, key=lambda cell: cell[2]
                    )
                    if saving > best_saving + 1e-9:
                        scheduler_demonstrations.append(
                            f"R={rate:g}: {label} saves {saving:.3f} at "
                            f"p95={p95:.2f}s — strictly dominating the best "
                            f"scheduler-less cell at equal-or-better p95 "
                            f"({best_label}, saving {best_saving:.3f}, "
                            f"p95={best_p95:.2f}s)"
                        )

            result.bundles[f"R_{rate:g}"] = bundle
            result.tables[f"R_{rate:g}"] = format_table(
                rows,
                headers=[
                    "policy", "saving", "p95", "p99", "mean", "spinups",
                    "SLO met",
                ],
                title=f"DPM policies at R={rate:g} req/s",
            )
            result.tables[f"R_{rate:g}_plot"] = ascii_plot(
                curves,
                title=f"power saving vs p95 at R={rate:g}",
                x_label="p95 response (s)",
                y_label="power saving",
                width=56,
                height=14,
            )

        if demonstrations:
            result.notes.append(
                "frontier demonstration: "
                + "; ".join(demonstrations)
            )
        elif slo_targets:
            result.notes.append(
                "no (rate, target) cell demonstrated the controller beating "
                "the static grid at this scale — try scale>=0.25"
            )
        if ladder_demonstrations:
            result.notes.append(
                "ladder frontier demonstration: "
                + "; ".join(ladder_demonstrations)
            )
        elif dpm_ladder is not None:
            result.notes.append(
                f"no cell showed the {dpm_ladder} ladder beating the best "
                "two-state static threshold at equal p95 at this scale — "
                "try scale>=0.25"
            )
        if scheduler_demonstrations:
            result.notes.append(
                "scheduler frontier demonstration: "
                + "; ".join(scheduler_demonstrations)
            )
        elif scheduler is not None:
            result.notes.append(
                f"no cell showed the {scheduler} scheduler dominating the "
                "best scheduler-less cell at equal-or-better p95 at this "
                "scale — try scale>=0.25"
            )
        result.notes.append(
            "spread (round_robin) placement on purpose: packed allocations "
            "make the threshold nearly free (Figs 2-6), spread traffic "
            "prices every choice — the regime where online DPM control "
            "matters"
        )
        result.notes.append(
            f"{len(tasks)} grid points dispatched through the shared "
            "SweepRunner (DPM-salted fingerprints, disk-cacheable); "
            "controlled runs carry per-interval threshold/percentile "
            "traces in result.extra['dpm']"
        )
    result.wall_seconds = timer.elapsed
    return result
