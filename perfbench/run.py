"""Benchmark of the storage simulator: host throughput, per-layer host
time, and the simulated power/response trade-off it reproduces.

Usage, from the repository root::

    python3 perfbench/run.py --workload readonly_fixed --seed 0 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all    # each workload in a fresh
                                               # interpreter, in turn

One invocation runs one workload in this process.  It builds the inputs
from ``--seed`` several times (set-up is reported as their median),
makes an untimed reference run that also warms up and carries the output
checks, then repeats fresh ``StorageSystem.run`` calls for ``--seconds``
seconds.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced runs, reports the per-layer breakdown and
writes the last traced run's spans as Chrome trace JSON under
``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only if
every run passed its checks, and 2 if the simulator's sources are
missing.  ``README.md`` in this directory describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = (
    "readonly_fixed", "mixed_cached_traced", "slo_ladder_streaming",
    "event_oracle",
)
#: Set-up is timed this many times per invocation; the median is reported.
SETUP_REPS = 5
#: Timed runs repeat for ``--seconds`` but never fewer than this.
MIN_REPS = 3

END_TO_END_UNITS = {
    "throughput_mreq_s": "Mreq/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_power_saving": "fraction",
    "sim_mean_response_s": "sim_s",
    "sim_p95_response_s": "sim_s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _timed_run(inputs, tracer=None):
    """One fresh ``StorageSystem.run``; returns ``(seconds, result)``."""
    system = inputs.system()
    observer = inputs.observer()
    gc.collect()
    if tracer is None:
        t0 = perf_counter()
        result = system.run(inputs.stream, observer=observer)
        return perf_counter() - t0, result
    tracer.reset()
    with tracer.installed():
        t0 = perf_counter()
        result = tracer.run_span(system.run, inputs.stream, observer=observer)
        return perf_counter() - t0, result


def _repeat(seconds, step) -> int:
    """Call ``step()`` until ``seconds`` have passed (at least MIN_REPS)."""
    deadline = perf_counter() + seconds
    reps = 0
    while reps < MIN_REPS or perf_counter() < deadline:
        step()
        reps += 1
    return reps


def _report(header, metrics, ledger) -> dict:
    """Print the human-readable table; return the result JSON object."""
    print(header)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<34} {value:.6g} {unit}")
    print(f"  {'failed_frac':<34} {ledger.failed}/{ledger.attempted}")
    return _result(ledger, metrics)


def _result(ledger, metrics) -> dict:
    for message in ledger.messages:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    return {
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if metrics else max(ledger.failed, 1),
        "metrics": {
            k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
        },
    }


def bench(args) -> dict:
    """Run one workload; returns the result JSON object."""
    import checks
    import workloads
    from yardstick import Yardstick

    name, seed = args.workload, args.seed
    yardstick = Yardstick()
    setups = []
    for _ in range(SETUP_REPS):
        yardstick.sample()
        setups.append(workloads.build(name, seed))
    inputs = setups[-1]
    ledger = checks.Ledger()
    two_state = name in workloads.TWO_STATE

    # Reference run: warms up, is never timed, and carries every check.
    ref_system = inputs.system()
    ref = ledger.run(
        "reference",
        lambda: ref_system.run(inputs.stream, observer=inputs.observer()),
        lambda r: checks.reference_failures(inputs, r, ref_system, two_state),
    )
    nospin = ledger.run(
        "no-spin-down reference",
        lambda: inputs.run(inputs.nospin_config()),
        lambda r: checks.reference_failures(inputs, r, None, two_state),
    )
    if ref is None or nospin is None:
        return _result(ledger, {})
    if inputs.config.engine == "event":
        fast_config = inputs.config.with_overrides(engine="fast")
        ledger.run(
            "fast-kernel oracle",
            lambda: inputs.run(fast_config),
            lambda r: checks.oracle_failures(ref, r),
        )
    sim = checks.sim_metrics(ref, nospin)
    ledger.record("recorded values", checks.recorded_failures(
        name, seed, dict(sim, energy_j=ref.energy, spinups=ref.spinups,
                         completions=ref.completions)))
    expected = checks.digest(ref)

    def timed(label, tracer=None):
        """A timed run checked bit-identical to the reference; returns
        its host seconds, or ``None`` if it raised or differed."""
        out = ledger.run(
            label,
            lambda: _timed_run(inputs, tracer),
            lambda tr: (
                [] if checks.digest(tr[1]) == expected
                else ["simulated outputs differ from the reference run"]
            ),
        )
        return None if out is None else out[0]

    if args.trace:
        return _per_layer(args, inputs, setups, ref, ledger, timed)
    times = []

    def step():
        yardstick.sample()
        seconds = timed(f"timed run {len(times) + 1}")
        if seconds is not None:
            times.append(seconds)

    reps = _repeat(args.seconds, step)
    if not times:
        return _result(ledger, {})
    # Host times are medians divided by the host's slowness, so that runs
    # made minutes apart on a drifting shared host compare (README.md).
    slowness = yardstick.slowness()
    run_s = statistics.median(times)
    setup_s = statistics.median(s.setup_s for s in setups)
    n_requests = len(inputs.stream)
    metrics = {
        "throughput_mreq_s": n_requests / (run_s / slowness) / 1e6,
        "setup_s": setup_s / slowness,
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        **sim,
    }
    return _report(
        f"{name} seed={seed}: {n_requests} simulated requests; median of "
        f"{reps} timed runs {run_s:.4f} s; median of {SETUP_REPS} set-ups "
        f"{setup_s:.4f} s; host slowness {slowness:.3f}",
        {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        ledger,
    )


def _per_layer(args, inputs, setups, ref, ledger, timed) -> dict:
    """Traced mode: untraced and traced runs alternate, so the overhead
    ratio compares runs made under the same host conditions."""
    from layers import LAYER_TIMES, Tracer
    from repro.obs.trace import write_trace

    tracer = Tracer()
    ratios, self_times, shares = [], [], []

    def step():
        bare = timed(f"untraced run {len(ratios) + 1}")
        traced = timed(f"traced run {len(ratios) + 1}", tracer)
        if bare is None or traced is None:
            return
        ratios.append(traced / bare)
        self_times.append(
            {m: tracer.self_s[layer] for m, layer in LAYER_TIMES.items()}
        )
        shares.append(tracer.self_s["sim.fastkernel"] / traced)

    reps = _repeat(args.seconds, step)
    if not ratios:
        return _result(ledger, {})
    counts = tracer.counts
    lookups = counts["cache.lookup_calls"]
    releases = counts["system.scheduling.release_calls"]
    standby = sum(
        seconds for state, seconds in ref.state_durations.items()
        if getattr(state, "value", state) == "standby"
    )
    metrics = {
        "workload.generate_s": (
            statistics.median(s.generate_s for s in setups), "s"),
        "core.allocate_s": (
            statistics.median(s.allocate_s for s in setups), "s"),
        **{
            m: (statistics.median(t[m] for t in self_times), "s")
            for m in LAYER_TIMES
        },
        "sim.fastkernel.share": (statistics.median(shares), "fraction"),
        "cache.lookup_calls": (lookups, "count"),
        "cache.admit_calls": (counts["cache.admit_calls"], "count"),
        "cache.hit_ratio": (
            ref.cache_stats.hit_ratio if lookups else 0.0, "fraction"),
        "system.placement.choose_calls": (
            counts["system.placement.choose_calls"], "count"),
        "obs.emit_calls": (counts["obs.emit_calls"], "count"),
        "system.scheduling.release_calls": (releases, "count"),
        "system.scheduling.held_frac": (
            counts["system.scheduling.held"] / releases if releases else 0.0,
            "fraction"),
        "control.advance_calls": (counts["control.advance_calls"], "count"),
        "control.p2_add_elems": (counts["control.p2_add_elems"], "count"),
        "system.dispatcher.submit_calls": (
            counts["system.dispatcher.submit_calls"], "count"),
        "disk.spinups": (ref.spinups, "count"),
        "disk.standby_frac": (
            standby / (ref.num_disks * ref.duration), "fraction"),
        "trace.overhead_frac": (statistics.median(ratios) - 1.0, "fraction"),
    }
    label = f"{args.workload} seed={args.seed}"
    path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    write_trace(tracer.chrome_trace(label), path)
    return _report(
        f"{label}: {reps} untraced/traced run pairs; spans of the last "
        f"traced run in {path.relative_to(ROOT)}",
        metrics,
        ledger,
    )


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, so each peak RSS is
    its own; prints each report and one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
        try:
            child = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= child["correct"] and proc.returncode == 0
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for key, metric in child["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = bench(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
