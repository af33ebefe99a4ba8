"""Non-finite durations and thresholds are refused, with the same typed
error on both engines.

Each guard is written as the range a value must lie in (``not x >= 0``),
not as its complement (``x < 0``): NaN fails every comparison, so a
complement check lets it through to surface later as a NaN energy, a
silent zero-completion run, or a different error per engine.
"""

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.control import DPMPolicy
from repro.control.controller import ThresholdController
from repro.control.policies import DPM_POLICIES
from repro.disk.dpm import DpmLadder, make_dpm_ladder
from repro.disk.fleet import Fleet, FleetDisk, ResolvedFleet
from repro.disk.specs import ST3500630AS as SPEC
from repro.errors import ConfigError, SimulationError
from repro.sim.fastkernel import simulate_fast, simulate_fast_chunked
from repro.system import StorageConfig, StorageSystem
from repro.workload.arrivals import RequestStream
from repro.workload.catalog import FileCatalog

ENGINES = ("event", "fast")
SIZES = np.full(8, 50e6)
MAPPING = np.arange(8, dtype=np.int64) % 2
POOL = Fleet.uniform(SPEC, threshold=5.0).resolve(2)


def _system(engine, **over):
    catalog = FileCatalog(sizes=SIZES, popularities=np.full(8, 1 / 8))
    stream = RequestStream.poisson(catalog.popularities, 0.2, 2_000.0, rng=4)
    cfg = StorageConfig(num_disks=2, engine=engine, **over)
    return StorageSystem(catalog, MAPPING, cfg), stream


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0, 0.0])
def test_run_refuses_non_positive_or_non_finite_duration(engine, duration):
    system, stream = _system(engine)
    with pytest.raises(ConfigError, match="positive and finite"):
        system.run(stream, duration=duration)


@pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0, 0.0])
def test_fast_kernel_refuses_bad_duration(duration):
    _, stream = _system("fast")
    with pytest.raises(ConfigError, match="positive and finite"):
        simulate_fast(SIZES, MAPPING, POOL, stream, duration)
    with pytest.raises(ConfigError, match="positive and finite"):
        simulate_fast_chunked(
            SIZES, MAPPING, POOL, stream.chunks(16), duration
        )


class _NanUpdate(DPMPolicy):
    """Keeps the base thresholds for one interval, then returns NaN."""

    name = "test_nan_update"

    def update(self, telemetry):
        return np.full(self.num_disks, math.nan)


class _NanStart(DPMPolicy):
    """Starts every disk at a NaN threshold."""

    name = "test_nan_start"

    def initial_thresholds(self):
        return np.full(self.num_disks, math.nan)

    def update(self, telemetry):
        return self.base_thresholds.copy()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "policy, match",
    [(_NanUpdate, "negative or NaN threshold"),
     (_NanStart, "negative or NaN initial threshold")],
)
def test_nan_controller_thresholds_raise_on_both_engines(
    monkeypatch, engine, policy, match
):
    monkeypatch.setitem(DPM_POLICIES, policy.name, policy)
    system, stream = _system(
        engine, dpm_policy=policy.name, control_interval=200.0
    )
    with pytest.raises(SimulationError, match=match):
        system.run(stream)


@pytest.mark.parametrize("engine", ENGINES)
def test_nan_fleet_threshold_is_a_config_error(engine):
    with pytest.raises(ConfigError, match="FleetDisk.threshold"):
        fleet = Fleet("nan", (FleetDisk(SPEC, threshold=math.nan),))
        system, stream = _system(engine, fleet=fleet)
        system.run(stream)


def test_nan_ladder_threshold_is_a_config_error():
    ladder = make_dpm_ladder("drpm4", SPEC)
    one_rung = DpmLadder("idle_only", ladder.rungs[:1])
    for lad in (ladder, one_rung):
        with pytest.raises(ConfigError, match="threshold must be >= 0"):
            lad.scaled_entries(math.nan)
    _, stream = _system("fast")
    with pytest.raises(ConfigError, match="threshold must be >= 0"):
        simulate_fast(
            SIZES, MAPPING, ResolvedFleet((SPEC,) * 2, (None,) * 2,
                                          (math.nan,) * 2),
            stream, 2_000.0,
        )


@contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when the body runs past ``seconds``."""

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("engine", ENGINES)
def test_subnormal_control_interval_is_a_config_error(engine):
    # 2,000 s / 1e-310 overflows to inf: the boundary grid would step by a
    # subnormal forever.  The check runs before any work, so the deadline
    # (short, since the loop it guards against grows a list) is ample.
    system, stream = _system(
        engine, dpm_policy="adaptive_timeout", control_interval=1e-310
    )
    with _deadline(2.0), pytest.raises(ConfigError, match="control_interval"):
        system.run(stream)


def test_fast_kernel_refuses_subnormal_control_interval():
    _, stream = _system("fast")
    dpm = ThresholdController("adaptive_timeout", 1e-310, 2, 5.0, SPEC)
    with _deadline(2.0), pytest.raises(ConfigError, match="control_interval"):
        simulate_fast(SIZES, MAPPING, POOL, stream, 2_000.0, dpm=dpm)
