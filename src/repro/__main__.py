"""Command-line entry point: ``python -m repro``.

Subcommands::

    python -m repro list                       # available experiments
    python -m repro run fig2 --scale 0.25      # regenerate one figure/table
    python -m repro run all --scale 0.1        # everything, quickly
    python -m repro info                       # library + paper summary

Results are printed as the ASCII tables the paper's figures plot; pass
``--csv-dir DIR`` to also export every curve as CSV.  Sweep-backed
experiments accept ``--workers N`` (process-parallel grid points via the
orchestrator), ``--engine fast`` (the batched simulation kernel — covers
read/write mixes and shared caches), ``--chunk-size N`` (out-of-core
execution: fast-engine points stream through the chunked kernel N
requests at a time, bit-identical to the monolithic runs) and
``--sweep-cache DIR|off`` (where sweep results persist across sessions;
defaults to ``REPRO_SWEEP_CACHE`` or ``~/.cache/repro/sweeps``).  The ``placement``
ablation additionally accepts ``--write-policy NAME`` to restrict the
swept write-placement registry to one policy; the ``slo-frontier``
experiment (online DPM control: static thresholds vs adaptive policies vs
the SLO-feedback controller, per load level) accepts ``--dpm-policy NAME``
and ``--slo-target SECONDS`` to restrict its grid, and ``--dpm-ladder
NAME`` (``two_state``, ``nap``, ``drpm4`` — see ``repro.disk.dpm``) to add
a multi-state power-ladder axis: every cell re-runs with the ladder, whose
intermediate low-power rungs both engines simulate identically, and the
report shows where the ladder beats the best two-state static threshold
at equal p95, plus ``--scheduler NAME`` (``slack_defer``,
``batch_release``, ``spinup_coalesce`` — see ``repro.system.scheduling``)
to add a slack-aware request-scheduler axis: two-state cells re-run with
arrivals held back to lengthen idle gaps, and the report shows where a
scheduled cell strictly dominates the best scheduler-less cell at
equal-or-better p95.  The ``hetero-fleet`` experiment (fleet mix x placement x
DPM policy over heterogeneous pools — see ``repro.disk.fleet``) accepts
``--fleet NAME`` (``uniform`` or a preset like ``mixed_generation``) to
restrict its fleet axis.

Observability (see the README's "Observability" section): ``--verbose``
prints a one-line summary per sweep, ``--profile`` a per-task wall-time
and worker-occupancy report, ``--trace-out PATH`` exports the sweeps'
task profiles as Chrome trace-event JSON (Perfetto-loadable) and
``--metrics-out PATH`` the per-run sweep stats as JSON; with a sweep
cache enabled each grid also writes a JSON run manifest under
``<cache>/manifests/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro import __version__
from repro.errors import ReproError

__all__ = ["main"]


def _experiment_registry() -> Dict[str, Callable]:
    from repro.experiments import (
        ablations,
        fig2_power_saving,
        fig3_response_ratio,
        fig4_tradeoff,
        fig5_idleness_power,
        fig6_idleness_response,
        groupsize_sweep,
        hetero_fleet,
        placement_sweep,
        sensitivity,
        slo_frontier,
        table1_workload,
        table2_disk,
    )

    return {
        "table1": table1_workload.run,
        "table2": table2_disk.run,
        "fig2": fig2_power_saving.run,
        "fig3": fig3_response_ratio.run,
        "fig4": fig4_tradeoff.run,
        "fig5": fig5_idleness_power.run,
        "fig6": fig6_idleness_response.run,
        "groupsize": groupsize_sweep.run,
        "placement": placement_sweep.run,
        "slo-frontier": slo_frontier.run,
        "hetero-fleet": hetero_fleet.run,
        "complexity": ablations.run_complexity,
        "quality": ablations.run_quality,
        "correlation": ablations.run_correlation,
        "cache-policies": ablations.run_cache_policies,
        "segregation": ablations.run_segregation,
        "sensitivity-threshold": sensitivity.run_threshold,
        "sensitivity-service": sensitivity.run_service_mode,
    }


def _cmd_list(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    print("Available experiments (see the repro.experiments docstrings):")
    for name in registry:
        print(f"  {name}")
    print("\nRun one with: python -m repro run <name> [--scale S] [--seed N]")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__}")
    print(
        "Reproduction of: Otoo, Rotem & Tsao, 'Analysis of Trade-Off "
        "Between Power Saving\nand Response Time in Disk Storage Systems' "
        "(LBNL, 2009)."
    )
    print(
        "\nCore: Pack_Disks O(n log n) 2DVPP file allocation with the "
        "C*/(1-rho)+1 bound.\nSubstrates: DES kernel, Table-2 disk power "
        "model, Zipf/NERSC workloads, caches.\nDocs: README.md."
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    if (
        args.workers is not None
        or args.engine is not None
        or args.sweep_cache is not None
        or args.chunk_size is not None
        or args.verbose
    ):
        from repro.experiments import orchestrator

        kwargs = {}
        if args.sweep_cache is not None:
            kwargs["cache_dir"] = orchestrator.resolve_cache_dir(
                args.sweep_cache
            )
        orchestrator.configure(
            max_workers=args.workers,
            engine=args.engine,
            chunk_size=args.chunk_size,
            verbose=args.verbose,
            **kwargs,
        )
    names = list(registry) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            "see 'python -m repro list'",
            file=sys.stderr,
        )
        return 2
    # Experiment-specific pass-through flags: forwarded when the target
    # experiment's run() accepts the keyword, an error when it does not
    # (unless sweeping 'all', where inapplicable flags are just skipped).
    passthrough = {
        "write_policy": (args.write_policy, "the 'placement' sweep"),
        "dpm_policy": (args.dpm_policy, "the 'slo-frontier' experiment"),
        "slo_target": (args.slo_target, "the 'slo-frontier' experiment"),
        "dpm_ladder": (args.dpm_ladder, "the 'slo-frontier' experiment"),
        "scheduler": (args.scheduler, "the 'slo-frontier' experiment"),
        "fleet": (args.fleet, "the 'hetero-fleet' experiment"),
    }
    failed = []
    for name in names:
        kwargs = {"scale": args.scale}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        for key, (value, owner) in passthrough.items():
            if value is None:
                continue
            import inspect

            if key in inspect.signature(registry[name]).parameters:
                kwargs[key] = value
            elif args.experiment != "all":
                print(
                    f"--{key.replace('_', '-')} is not applicable to "
                    f"{name!r} (only {owner} accepts it)",
                    file=sys.stderr,
                )
                return 2
        try:
            result = registry[name](**kwargs)
        except ReproError as exc:
            # A typed library error fails this experiment only; the rest
            # of 'run all' still runs, and the exit code reports it.
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed.append(name)
            continue
        print(result.to_text())
        print()
        if args.csv_dir:
            for path in result.save_csv(args.csv_dir):
                print(f"wrote {path}")
    if args.profile or args.trace_out or args.metrics_out:
        from repro.experiments import orchestrator

        runner = orchestrator.default_runner()
        if args.profile:
            print(runner.profile_report())
        if args.trace_out:
            print(f"wrote {runner.write_trace(args.trace_out)}")
        if args.metrics_out:
            print(f"wrote {runner.write_metrics(args.metrics_out)}")
    if failed:
        print(
            f"{len(failed)} of {len(names)} experiment(s) failed: "
            f"{', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("info", help="library and paper summary").set_defaults(
        func=_cmd_info
    )

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment name, or 'all'")
    run.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="workload scale factor, 1.0 = full paper scale (default 0.25)",
    )
    run.add_argument("--seed", type=int, default=None, help="override the seed")
    run.add_argument(
        "--csv-dir", type=str, default=None, help="export curves as CSV here"
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep worker processes (default: REPRO_SWEEP_WORKERS or serial)",
    )
    run.add_argument(
        "--engine",
        choices=("event", "fast"),
        default=None,
        help="force a simulation kernel for sweep points that support it",
    )
    run.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run fast-engine sweep points out-of-core, feeding the kernel "
            "N requests at a time (bit-identical to monolithic runs; pair "
            "with StorageConfig(metrics_mode='streaming') for bounded "
            "memory)"
        ),
    )
    run.add_argument(
        "--write-policy",
        type=str,
        default=None,
        metavar="POLICY",
        help=(
            "restrict the 'placement' sweep to one write-placement policy "
            "from the registry (see repro.system.placement)"
        ),
    )
    run.add_argument(
        "--dpm-policy",
        type=str,
        default=None,
        metavar="POLICY",
        help=(
            "restrict the 'slo-frontier' grid to one DPM policy ('fixed', "
            "'adaptive_timeout', 'exponential_predictive' or "
            "'slo_feedback'; see repro.control.policies)"
        ),
    )
    run.add_argument(
        "--slo-target",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "restrict the 'slo-frontier' grid to one p95 response-time "
            "target for the slo_feedback controller"
        ),
    )
    run.add_argument(
        "--dpm-ladder",
        type=str,
        default=None,
        metavar="LADDER",
        help=(
            "add a multi-state DPM ladder axis to the 'slo-frontier' grid "
            "('two_state', 'nap' or 'drpm4'; see repro.disk.dpm) — every "
            "cell re-runs with StorageConfig(dpm_ladder=LADDER)"
        ),
    )
    run.add_argument(
        "--scheduler",
        type=str,
        default=None,
        metavar="SCHEDULER",
        help=(
            "add a slack-aware request-scheduler axis to the "
            "'slo-frontier' grid ('slack_defer', 'batch_release' or "
            "'spinup_coalesce'; see repro.system.scheduling) — two-state "
            "cells re-run with StorageConfig(scheduler=SCHEDULER), holding "
            "requests back to lengthen idle gaps and coalesce wake-ups"
        ),
    )
    run.add_argument(
        "--fleet",
        type=str,
        default=None,
        metavar="FLEET",
        help=(
            "restrict the 'hetero-fleet' grid to one fleet: 'uniform' "
            "(the paper's homogeneous Table 2 pool) or a preset from "
            "repro.disk.fleet such as 'mixed_generation' (alternating "
            "old/new-generation drives with per-disk capacities, "
            "break-evens and power tables)"
        ),
    )
    run.add_argument(
        "--sweep-cache",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "directory for cross-session sweep result caching, or 'off' to "
            "disable (default: REPRO_SWEEP_CACHE or ~/.cache/repro/sweeps)"
        ),
    )
    run.add_argument(
        "--verbose",
        action="store_true",
        help=(
            "print a one-line summary per sweep "
            "(executed/cached/deduplicated/elapsed)"
        ),
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help=(
            "after the run, print per-task wall times and worker "
            "occupancy for every sweep"
        ),
    )
    run.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "export the sweeps' task profiles as a Chrome trace-event "
            "JSON (load in Perfetto / chrome://tracing)"
        ),
    )
    run.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PATH",
        help="export the sweeps' stats (per run + totals) as JSON",
    )
    run.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
