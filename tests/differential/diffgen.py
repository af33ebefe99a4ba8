"""Seeded random-scenario generation for the cross-engine differential
harness (see README.md in this directory for the reproduction workflow).

One integer seed deterministically expands into a complete, *valid*
simulation scenario — catalog, request stream, initial mapping and
:class:`~repro.system.config.StorageConfig` — sampled across the full
configuration product the engines must agree on:

    disks x stream shape x read/write mix x cache (policy, capacity)
    x write-placement policy x DPM policy (incl. SLO feedback)
    x idleness threshold (0 / finite / inf / default)
    x DPM ladder (none / presets / random user ladder)
    x fleet (uniform / mixed_generation preset / random heterogeneous
    profile with per-slot ladders and thresholds)
    x arrival shape (uniform Poisson / diurnal intensity / NERSC-style
    bursts)

A second, independently-seeded axis layers a random request scheduler
(``scheduler`` x ``scheduler_params``) over the same scenarios —
``build_scheduled_case(seed)`` — without perturbing the base draws.

``build_case(seed)`` returns the scenario plus a paste-able description;
``assert_engines_agree`` runs both kernels and holds them to 1e-9
agreement plus a battery of physical invariants.  This harness replaces
hand-enumerated grids as the primary engine-equivalence oracle: every new
simulation feature multiplies the surface, and uniform random sampling
covers the product where curated grids cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.control.policies import dpm_policy_names
from repro.disk.dpm import DpmLadder, LadderRung, dpm_ladder_names
from repro.disk.fleet import Fleet, FleetDisk
from repro.disk.specs import ST3500630AS, WD10EADS
from repro.system import StorageConfig, StorageSystem
from repro.system.placement import placement_policy_names
from repro.units import GiB, MB
from repro.workload.catalog import FileCatalog
from repro.workload.arrivals import RequestStream
from repro.workload.mixed import MixedRequestStream

#: Event-vs-fast agreement tolerance (matches the curated control grids).
TOL = 1e-9


@dataclass
class DifferentialCase:
    """One fully materialized random scenario."""

    seed: int
    catalog: FileCatalog
    stream: object
    mapping: np.ndarray
    config: StorageConfig
    num_disks: int
    arrival_shape: str = "uniform"

    def describe(self) -> str:
        """Paste-able summary for bug reports and shrink-by-hand."""
        cfg = self.config
        stream = self.stream
        kinds = getattr(stream, "kinds", None)
        writes = int((np.asarray(kinds) == "write").sum()) if kinds is not None else 0
        ladder = cfg.dpm_ladder
        if isinstance(ladder, DpmLadder):
            ladder = "DpmLadder(" + ", ".join(
                f"({r.name!r}, p={r.power:.3f}, e={r.entry:.3f}, "
                f"dn={r.down_time:.3f}, wk={r.wake_time:.3f})"
                for r in ladder.rungs
            ) + ")"
        fleet = cfg.fleet
        if isinstance(fleet, Fleet):
            fleet = "Fleet(" + ", ".join(
                f"{s.spec.model}"
                + (
                    f"/{s.ladder if isinstance(s.ladder, str) else s.ladder.name}"
                    if s.ladder is not None
                    else ""
                )
                + (f"/th={s.threshold:g}" if s.threshold is not None else "")
                for s in fleet.profile
            ) + ")"
        return (
            f"DifferentialCase(seed={self.seed}): "
            f"{self.num_disks} disks, {len(stream.times)} requests "
            f"({writes} writes, {self.arrival_shape} arrivals) "
            f"over {stream.duration:.0f}s, "
            f"files={self.catalog.n}, "
            f"threshold={cfg.idleness_threshold!r}, "
            f"cache={cfg.cache_policy!r}, write_policy={cfg.write_policy!r}, "
            f"dpm_policy={cfg.dpm_policy!r} "
            f"(interval={cfg.control_interval:g}, "
            f"slo={cfg.slo_target!r}@{cfg.slo_percentile:g}), "
            f"ladder={ladder!r}, fleet={fleet!r}\n"
            f"Reproduce: PYTHONPATH=src REPRO_DIFF_CASES=1 "
            f"REPRO_DIFF_BASE_SEED={self.seed} "
            f"python -m pytest 'tests/differential/test_differential.py::"
            f"test_random_config_agrees' -q\n"
            f"Or rebuild in a REPL: "
            f"from diffgen import build_case; case = build_case({self.seed})"
        )


def _random_ladder(rng: np.random.Generator) -> DpmLadder:
    """A random *valid* user ladder (entries built feasibly by construction)."""
    depth = int(rng.integers(2, 5))
    powers = np.sort(rng.uniform(0.5, 9.0, size=depth - 1))[::-1]
    rungs = [LadderRung("idle", 9.3)]
    entry = 0.0
    down = 0.0
    names = ["r1", "r2", "r3"]
    for i in range(depth - 1):
        entry = entry + down + float(rng.uniform(4.0, 90.0))
        down = float(rng.uniform(0.0, 8.0))
        rungs.append(
            LadderRung(
                names[i],
                float(powers[i]),
                entry=entry,
                down_time=down,
                down_power=float(rng.uniform(2.0, 12.0)),
                wake_time=float(rng.uniform(0.0, 12.0)),
                wake_power=float(rng.uniform(10.0, 30.0)),
            )
        )
    return DpmLadder("random", tuple(rungs))


def _random_fleet(rng: np.random.Generator) -> Fleet:
    """A random heterogeneous profile: 2-3 slots over both registered
    drive models, each slot optionally carrying its own ladder preset
    and/or threshold (exercising mixed specs, mixed ladder depths, and
    the ladderless-slot -> two_state backfill in one scenario)."""
    n_slots = int(rng.integers(2, 4))
    slots = []
    for _ in range(n_slots):
        spec = ST3500630AS if rng.random() < 0.5 else WD10EADS
        ladder = (
            str(rng.choice(dpm_ladder_names()))
            if rng.random() < 0.3
            else None
        )
        threshold = (
            float(rng.uniform(3.0, 150.0)) if rng.random() < 0.3 else None
        )
        slots.append(FleetDisk(spec, ladder=ladder, threshold=threshold))
    return Fleet("random_mix", tuple(slots))


def _arrival_times(
    rng: np.random.Generator, rate: float, duration: float, shape: str
) -> np.ndarray:
    """Arrival epochs under one of three intensity shapes.

    ``uniform`` is the historical homogeneous-Poisson draw; ``diurnal``
    thins proposals against a sinusoidal day-cycle intensity; ``bursty``
    scatters NERSC-style request clusters (normal spread around a few
    burst centers) over a thin uniform background.
    """
    count = int(rng.poisson(rate * duration))
    if shape == "diurnal":
        raw = np.sort(rng.uniform(0.0, duration, size=2 * count))
        period = duration / float(rng.uniform(1.0, 3.0))
        keep = rng.random(raw.size) < 0.5 * (
            1.0 + np.sin(2.0 * np.pi * raw / period)
        )
        return raw[keep]
    if shape == "bursty":
        n_bursts = int(rng.integers(2, 8))
        centers = rng.uniform(0.0, duration, size=n_bursts)
        n_background = count // 5
        n_clustered = count - n_background
        clustered = (
            centers[rng.integers(0, n_bursts, size=n_clustered)]
            + rng.normal(0.0, duration / 40.0, size=n_clustered)
        )
        background = rng.uniform(0.0, duration, size=n_background)
        # Clip strays to a *strictly positive* floor: an arrival at
        # exactly t=0 coincides with the idle timer arming — a
        # measure-zero tie the engine contract explicitly leaves
        # unspecified (the event drive logs a zero-length idle gap, the
        # fast kernel does not, and predictive DPM policies then see
        # different telemetry).
        return np.sort(
            np.clip(
                np.concatenate([clustered, background]),
                duration * 1e-6,
                duration,
            )
        )
    return np.sort(rng.uniform(0.0, duration, size=count))


def build_case(seed: int) -> DifferentialCase:
    """Expand one seed into a valid random scenario (deterministically)."""
    rng = np.random.default_rng(seed)
    num_disks = int(rng.integers(2, 13))
    duration = float(rng.uniform(200.0, 650.0))
    rate = float(rng.uniform(0.1, 0.5)) * num_disks
    n_files = int(rng.integers(30, 250))

    sizes = rng.uniform(5 * MB, 400 * MB, size=n_files)
    weights = rng.zipf(1.8, size=n_files).astype(float)
    catalog = FileCatalog(sizes=sizes, popularities=weights / weights.sum())

    shape = str(rng.choice(["uniform", "uniform", "diurnal", "bursty"]))
    times = _arrival_times(rng, rate, duration, shape)
    count = int(times.size)
    file_ids = rng.choice(n_files, size=count, p=catalog.popularities)

    # A fraction of runs mix in writes, some of which create new files
    # (mapped -1 so the placement policy decides).
    write_fraction = float(rng.choice([0.0, 0.0, 0.25, 0.5]))
    mapping = rng.integers(0, num_disks, size=n_files).astype(np.int64)
    if write_fraction > 0 and count:
        n_new = int(rng.integers(0, max(1, n_files // 4) + 1))
        if n_new:
            new_sizes = rng.uniform(5 * MB, 400 * MB, size=n_new)
            catalog = FileCatalog(
                sizes=np.concatenate([catalog.sizes, new_sizes]),
                popularities=np.concatenate(
                    [catalog.popularities, np.zeros(n_new)]
                ),
            )
            mapping = np.concatenate(
                [mapping, np.full(n_new, -1, dtype=np.int64)]
            )
        kinds = np.where(
            rng.random(count) < write_fraction, "write", "read"
        ).astype(object)
        if n_new:
            # New files are written (first touch allocates), then may be
            # re-read later in the stream.
            new_ids = np.arange(n_files, n_files + n_new)
            first_writes = rng.choice(
                count, size=min(n_new, count), replace=False
            )
            for slot, fid in zip(np.sort(first_writes), new_ids):
                file_ids[slot] = fid
                kinds[slot] = "write"
                later = (times > times[slot]) & (rng.random(count) < 0.05)
                file_ids[later] = fid
        stream = MixedRequestStream(
            times=times, file_ids=file_ids, kinds=np.asarray(kinds, dtype=object),
            duration=duration,
        )
    else:
        stream = RequestStream(
            times=times, file_ids=file_ids, duration=duration
        )

    cache_policy = rng.choice(
        [None, None, None, "lru", "fifo", "clock", "lfu"]
    )
    threshold_kind = rng.choice(["default", "finite", "zero", "inf"])
    idleness_threshold = {
        "default": None,
        "finite": float(rng.uniform(3.0, 150.0)),
        "zero": 0.0,
        "inf": math.inf,
    }[threshold_kind]
    dpm_policy = str(rng.choice(dpm_policy_names()))
    ladder_choice = rng.choice(
        [None, None, *dpm_ladder_names(), "random"]
    )
    if ladder_choice == "random":
        dpm_ladder = _random_ladder(rng)
    else:
        dpm_ladder = ladder_choice

    # ~1/3 of runs put a heterogeneous fleet under the same config: the
    # mixed_generation preset or a random profile (per-slot ladders and
    # thresholds override the config-wide choices above on their disks).
    fleet_choice = rng.choice([None, None, "mixed_generation", "random"])
    if fleet_choice == "random":
        fleet = _random_fleet(rng)
    else:
        fleet = None if fleet_choice is None else str(fleet_choice)

    config = StorageConfig(
        num_disks=num_disks,
        idleness_threshold=idleness_threshold,
        load_constraint=float(rng.uniform(0.4, 0.9)),
        cache_policy=None if cache_policy is None else str(cache_policy),
        cache_capacity=float(rng.uniform(0.25, 4.0)) * GiB,
        cache_hit_latency=float(rng.choice([0.0, 0.0, 0.05])),
        write_policy=str(rng.choice(placement_policy_names())),
        dpm_policy=dpm_policy,
        control_interval=float(rng.uniform(40.0, 160.0)),
        slo_target=(
            float(rng.uniform(5.0, 40.0))
            if dpm_policy == "slo_feedback"
            else None
        ),
        slo_percentile=float(rng.choice([95.0, 99.0])),
        dpm_ladder=dpm_ladder,
        fleet=fleet,
    )
    return DifferentialCase(
        seed=seed,
        catalog=catalog,
        stream=stream,
        mapping=mapping,
        config=config,
        num_disks=num_disks,
        arrival_shape=shape,
    )


#: XOR salt for the scheduler axis' private RNG stream.  The scheduler
#: draw must NOT come from the ``build_case`` generator: inserting a draw
#: there would shift every downstream sample and silently re-roll the
#: entire historical seed corpus (pinned repro recipes included).
_SCHED_SALT = 0x5CED

def sample_scheduler(seed: int):
    """Deterministically draw ``(scheduler, scheduler_params)`` for a seed.

    Uses a salted, independent RNG stream so the base scenario for the
    same seed is unchanged.  ``slack_defer`` always receives an explicit
    ``target``: the random config space leaves ``slo_target`` unset for
    every policy but ``slo_feedback``, and the scheduler must be
    exercised against *all* DPM policies.
    """
    rng = np.random.default_rng(seed ^ _SCHED_SALT)
    name = str(
        rng.choice(
            ["slack_defer", "slack_defer", "batch_release",
             "spinup_coalesce", "fifo"]
        )
    )
    params = []
    if name == "slack_defer":
        params.append(("target", float(rng.uniform(5.0, 40.0))))
        if rng.random() < 0.5:
            params.append(("margin", float(rng.uniform(0.3, 1.0))))
        if rng.random() < 0.5:
            params.append(("max_hold", float(rng.uniform(0.0, 60.0))))
        if rng.random() < 0.3:
            params.append(("window", float(rng.uniform(2.0, 20.0))))
    elif name == "batch_release":
        if rng.random() < 0.7:
            params.append(("window", float(rng.uniform(2.0, 30.0))))
        if rng.random() < 0.5:
            params.append(("max_hold", float(rng.uniform(5.0, 60.0))))
    elif name == "spinup_coalesce":
        if rng.random() < 0.7:
            params.append(("max_hold", float(rng.uniform(5.0, 90.0))))
    return name, tuple(params)


def build_scheduled_case(seed: int) -> DifferentialCase:
    """The random scenario for ``seed`` with a random request scheduler
    layered on top (independent draw — see :func:`sample_scheduler`)."""
    case = build_case(seed)
    name, params = sample_scheduler(seed)
    return replace(
        case,
        config=case.config.with_overrides(
            scheduler=name, scheduler_params=params
        ),
    )


def run_engines(case: DifferentialCase):
    """Run the scenario on both kernels; returns ``(event, fast)``."""
    event = StorageSystem(
        case.catalog,
        case.mapping,
        case.config.with_overrides(engine="event"),
        num_disks=case.num_disks,
    ).run(case.stream)
    fast = StorageSystem(
        case.catalog,
        case.mapping,
        case.config.with_overrides(engine="fast"),
        num_disks=case.num_disks,
    ).run(case.stream)
    return event, fast


def assert_invariants(result, case: DifferentialCase) -> None:
    """Physical sanity independent of the other engine."""
    note = case.describe()
    T = result.duration
    n = result.num_disks
    assert result.completions <= result.arrivals, note
    assert result.spinups <= result.spindowns + n, note
    assert np.all(np.asarray(result.response_times) >= 0), note
    # Per-state residencies tile the run exactly.
    total = sum(result.state_durations.values())
    assert abs(total - T * n) < 1e-6 * max(1.0, T * n), note
    # Energy bounded by the extreme constant draws — over every spec and
    # every ladder actually present in the pool (a heterogeneous fleet
    # widens the envelope to the union of its drives').
    resolved = case.config.resolved_fleet(case.num_disks)
    specs = set(resolved.specs)
    ladders = {lad for lad in resolved.ladders if lad is not None}
    powers = []
    for spec in specs:
        powers.extend(
            [
                spec.idle_power, spec.standby_power, spec.active_power,
                spec.seek_power, spec.spinup_power, spec.spindown_power,
            ]
        )
    for ladder in ladders:
        powers.extend(
            [r.power for r in ladder.rungs]
            + [r.down_power for r in ladder.rungs]
            + [r.wake_power for r in ladder.rungs]
        )
    assert result.energy <= max(powers) * T * n + 1e-6, note
    assert result.energy >= min(powers) * T * n - 1e-6, note
    assert np.all(result.energy_per_disk >= -1e-9), note


def run_observed(case: DifferentialCase, engine: str, observer=None):
    """Run the scenario on one kernel, optionally under an observer."""
    return StorageSystem(
        case.catalog,
        case.mapping,
        case.config.with_overrides(engine=engine),
        num_disks=case.num_disks,
    ).run(case.stream, observer=observer)


def assert_observer_invisible(off, on, case: DifferentialCase, engine: str) -> None:
    """Observation is purely passive: an observed run must be *bit*
    identical to an unobserved one — not 1e-9, bit — in every simulated
    quantity.  Any drift means an observer hook leaked arithmetic into
    the kernel.  (``extra["obs"]`` is the one sanctioned difference.)
    """
    note = f"{case.describe()}\n(engine={engine!r}, observer on vs off)"
    assert np.array_equal(off.response_times, on.response_times), note
    assert np.array_equal(off.energy_per_disk, on.energy_per_disk), note
    assert off.energy == on.energy, note
    assert np.array_equal(off.final_mapping, on.final_mapping), note
    assert np.array_equal(off.requests_per_disk, on.requests_per_disk), note
    assert np.array_equal(off.spinups_per_disk, on.spinups_per_disk), note
    assert off.state_durations == on.state_durations, note
    assert off.arrivals == on.arrivals, note
    assert off.completions == on.completions, note
    assert off.spinups == on.spinups, note
    assert off.spindowns == on.spindowns, note
    if off.cache_stats is not None:
        assert off.cache_stats == on.cache_stats, note
    if "dpm" in off.extra:
        assert off.extra["dpm"]["thresholds"] == on.extra["dpm"]["thresholds"], note
        assert off.extra["dpm"]["t_end"] == on.extra["dpm"]["t_end"], note
    assert "obs" not in off.extra, note
    assert "obs" in on.extra, note


def run_chunked(case: DifferentialCase, chunk_size: int, metrics_mode="full"):
    """Run the fast kernel out-of-core (``chunk_size`` requests at a time)."""
    return StorageSystem(
        case.catalog,
        case.mapping,
        case.config.with_overrides(
            engine="fast", chunk_size=chunk_size, metrics_mode=metrics_mode
        ),
        num_disks=case.num_disks,
    ).run(case.stream)


def assert_chunked_identical(mono, chunk, case: DifferentialCase, k: int) -> None:
    """The chunked axis is held to *bit* identity, not 1e-9: the chunked
    core's accumulators are chosen for partition invariance (serial
    scatter-adds continuing the monolithic reductions), so any drift is a
    carry-state bug, not float noise.  The one exception is the controlled
    per-interval power trace, whose incremental span binning regroups
    float sums — held to 1e-9 relative instead.
    """
    note = f"{case.describe()}\n(chunk_size={k})"
    assert np.array_equal(mono.response_times, chunk.response_times), note
    assert np.array_equal(mono.energy_per_disk, chunk.energy_per_disk), note
    assert np.array_equal(mono.final_mapping, chunk.final_mapping), note
    assert np.array_equal(mono.requests_per_disk, chunk.requests_per_disk), note
    assert np.array_equal(mono.spinups_per_disk, chunk.spinups_per_disk), note
    assert mono.state_durations == chunk.state_durations, note
    assert mono.arrivals == chunk.arrivals, note
    assert mono.completions == chunk.completions, note
    assert mono.spinups == chunk.spinups, note
    assert mono.spindowns == chunk.spindowns, note
    if mono.cache_stats is not None:
        assert mono.cache_stats.hits == chunk.cache_stats.hits, note
        assert mono.cache_stats.misses == chunk.cache_stats.misses, note
    if "dpm" in mono.extra:
        dpm_m, dpm_c = mono.extra["dpm"], chunk.extra["dpm"]
        assert dpm_c["thresholds"] == dpm_m["thresholds"], note
        assert dpm_c["t_end"] == dpm_m["t_end"], note
        assert dpm_c["completions"] == dpm_m["completions"], note
        np.testing.assert_allclose(
            np.asarray(dpm_c["power"]),
            np.asarray(dpm_m["power"]),
            rtol=1e-9,
            atol=1e-12,
            err_msg=note,
        )


def assert_streaming_consistent(mono, streamed, case: DifferentialCase) -> None:
    """Streaming metrics vs the full response array of the same run:
    count/min/max exact, mean to serial-sum-regrouping noise (the
    accumulator continues the same left-to-right reduction, so in practice
    this is bit-exact too — asserted at 1e-12 to stay honest about the
    contract rather than the implementation)."""
    note = case.describe()
    assert streamed.response_times is None, note
    stats = streamed.response_stats
    assert stats is not None, note
    assert stats.count == mono.completions, note
    if mono.completions:
        resp = mono.response_times
        assert stats.min == float(resp.min()), note
        assert stats.max == float(resp.max()), note
        assert abs(stats.mean - float(resp.mean())) <= 1e-12 * max(
            1.0, abs(float(resp.mean()))
        ), note
    # Everything that never depended on the response array stays bit-equal.
    assert np.array_equal(mono.energy_per_disk, streamed.energy_per_disk), note
    assert mono.state_durations == streamed.state_durations, note
    assert np.array_equal(mono.final_mapping, streamed.final_mapping), note


def assert_engines_agree(event, fast, case: DifferentialCase) -> None:
    """The 1e-9 cross-engine contract, annotated with the repro recipe."""
    note = case.describe()
    assert fast.arrivals == event.arrivals, note
    assert fast.completions == event.completions, note
    assert fast.spinups == event.spinups, note
    assert fast.spindowns == event.spindowns, note
    assert abs(fast.energy - event.energy) <= TOL * max(1.0, event.energy), note
    np.testing.assert_allclose(
        fast.energy_per_disk, event.energy_per_disk, rtol=TOL, atol=1e-6,
        err_msg=note,
    )
    np.testing.assert_allclose(
        np.sort(fast.response_times),
        np.sort(event.response_times),
        rtol=TOL,
        atol=TOL,
        err_msg=note,
    )
    for state, t in event.state_durations.items():
        assert fast.state_durations.get(state, 0.0) == pytest.approx(
            t, rel=TOL, abs=1e-6
        ), (state, note)
    if event.final_mapping is not None:
        assert np.array_equal(fast.final_mapping, event.final_mapping), note
    if event.cache_stats is not None:
        assert fast.cache_stats.hits == event.cache_stats.hits, note
        assert fast.cache_stats.misses == event.cache_stats.misses, note
    if "dpm" in event.extra:
        dpm_e, dpm_f = event.extra["dpm"], fast.extra["dpm"]
        assert dpm_f["thresholds"] == dpm_e["thresholds"], note
        assert dpm_f["t_end"] == dpm_e["t_end"], note
        assert dpm_f["completions"] == dpm_e["completions"], note
        np.testing.assert_allclose(
            np.asarray(dpm_f["power"]),
            np.asarray(dpm_e["power"]),
            rtol=1e-6,
            atol=1e-9,
            err_msg=note,
        )
