#!/usr/bin/env python
"""Tour of the features beyond the paper's core evaluation.

1. **Diurnal arrivals** — a day/night load cycle through the simulator.
2. **Read/write mix** (§6 future work) — writes steered to spinning disks
   per the §1.1 policy, new files allocated on the fly.
3. **Periodic reorganization** (§1.1) — re-pack from observed access
   statistics each epoch.
4. **Multi-state DPM ladder** (§2's framework) — an intermediate "nap"
   state between idle and standby, with the 2-competitive lower-envelope
   schedule.

Usage::

    python examples/extensions_tour.py
"""

import numpy as np

from repro import StorageConfig, StorageSystem
from repro.disk import DiskDrive, ST3500630AS
from repro.disk.dpm import DpmState, MultiStateDpmPolicy
from repro.sim import Environment
from repro.system import ReorganizingRunner, allocate
from repro.units import HOUR, MB
from repro.workload import (
    FileCatalog,
    MixedWorkloadParams,
    diurnal_rate,
    generate_mixed_workload,
    nonhomogeneous_stream,
)


def part1_diurnal(catalog: FileCatalog) -> None:
    print("=" * 64)
    print("1. Diurnal load cycle (nonhomogeneous Poisson via thinning)")
    rate = diurnal_rate(mean_rate=0.3, amplitude=0.9, peak_hour=14.0)
    stream = nonhomogeneous_stream(
        catalog.popularities, rate, peak_rate=0.6, duration=12 * HOUR, rng=1
    )
    tod = stream.times % (24 * HOUR)
    day = int(np.sum((tod > 6 * HOUR) & (tod < 18 * HOUR)))
    print(f"   {len(stream)} requests over 12 h; "
          f"{day} in daytime hours vs {len(stream) - day} at night")
    cfg = StorageConfig(num_disks=15, load_constraint=0.8)
    alloc = allocate(catalog, "pack", cfg, stream.mean_rate)
    system = StorageSystem(catalog, alloc.mapping(catalog.n), cfg)
    res = system.run(stream)
    print(f"   simulated: {res.completions} served, "
          f"saving vs always-on {res.power_saving_normalized:.1%}, "
          f"mean response {res.mean_response:.2f} s\n")


def part2_writes(catalog: FileCatalog) -> None:
    print("=" * 64)
    print("2. Read/write mix with the paper's write policy (§1.1)")
    extended, stream = generate_mixed_workload(
        catalog,
        MixedWorkloadParams(
            write_fraction=0.3, new_file_fraction=0.5,
            arrival_rate=0.5, duration=2_000.0, seed=2,
        ),
    )
    # The event engine, whose dispatcher counts the writes it routes.
    cfg = StorageConfig(num_disks=15, load_constraint=0.8, engine="event")
    alloc = allocate(catalog, "pack", cfg, 0.5)
    mapping = np.full(extended.n, -1, dtype=np.int64)
    mapping[: catalog.n] = alloc.mapping(catalog.n)
    system = StorageSystem(extended, mapping, cfg)
    res = system.run(stream, duration=stream.duration + 100)
    new_files = extended.n - catalog.n
    print(f"   {len(stream)} requests ({stream.write_fraction:.0%} writes), "
          f"{new_files} brand-new files allocated on write")
    print(f"   all completed: {res.completions == res.arrivals}, "
          f"writes routed: {system.dispatcher.write_count}\n")


def part3_reorganization(catalog: FileCatalog) -> None:
    print("=" * 64)
    print("3. Periodic reorganization from observed statistics (§1.1)")
    from repro.workload import RequestStream

    stream = RequestStream.poisson(
        catalog.popularities, rate=0.5, duration=3_000.0, rng=3
    )
    cfg = StorageConfig(num_disks=15, load_constraint=0.8)
    runner = ReorganizingRunner(catalog, cfg, interval=1_000.0)
    res = runner.run(stream)
    print(f"   {int(res.extra['epochs'])} epochs, mean "
          f"{res.extra['mean_moved_files']:.0f} files re-placed per epoch")
    print(f"   energy {res.energy / 3.6e6:.3f} kWh, "
          f"mean response {res.mean_response:.2f} s\n")


def part4_dpm() -> None:
    print("=" * 64)
    print("4. Multi-state DPM: idle -> nap -> standby ladder (§2 framework)")
    ladder = [
        DpmState("idle", 9.3, 0.0, 0.0),
        DpmState("nap", 4.0, 60.0, 2.0),
        DpmState("standby", 0.8, 453.0, 15.0),
    ]
    policy = MultiStateDpmPolicy(ladder)
    t1, t2 = policy.thresholds()
    print(f"   lower-envelope thresholds: nap at {t1:.1f} s, "
          f"standby at {t2:.1f} s (2-competitive)")
    env = Environment()
    drive = DiskDrive(env, ST3500630AS, ladder=policy)
    gaps = np.random.default_rng(4).exponential(90.0, size=200)
    times = np.cumsum(gaps)
    requests = []

    def feeder(env):
        for t in times:
            yield env.timeout(t - env.now)
            requests.append(drive.submit(0, 72 * MB))

    env.process(feeder(env))
    env.run(until=float(times[-1]) + 50)
    responses = [r.done.value for r in requests if r.done.triggered]
    durations = drive.state_durations()
    napped = durations.get("nap", 0.0)
    print(f"   mean power {drive.mean_power():.2f} W; time napping "
          f"{napped:.0f} s of {env.now:.0f} s; "
          f"mean response {np.mean(responses):.2f} s")


def main() -> None:
    catalog = FileCatalog.from_zipf(n=1_000, s_max=2e9, s_min=100 * MB)
    part1_diurnal(catalog)
    part2_writes(catalog)
    part3_reorganization(catalog)
    part4_dpm()


if __name__ == "__main__":
    main()
