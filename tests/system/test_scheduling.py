"""Unit tests for the request-scheduler registry (`repro.system.scheduling`).

Covers registry wiring, parameter normalization/validation, the disk
forecast (on the oracle's copy that the compiled rules are held to), each
registered strategy's release rule, the fifo
byte-identity pins (config-level *and* forced through the scheduling
machinery), and a deterministic release-on-control-boundary tie that the
randomized differential axis cannot hit (float intervals make exact ties
measure-zero there).
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.system import StorageConfig, StorageSystem
from repro.system.scheduling import (
    DEFAULT_SCHEDULER,
    BatchRelease,
    Fifo,
    RequestScheduler,
    SchedulingSetup,
    SlackDefer,
    SpinupCoalesce,
    build_scheduling_setup,
    make_request_scheduler,
    normalize_scheduler_params,
    request_scheduler_names,
)
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from scheduling_oracle import OracleDiskModel


def _setup(
    num_disks=1,
    mapping=(0,),
    sizes=(1.0,),
    oh=0.0,
    rate=1.0,
    th=5.0,
    down=2.0,
    up=3.0,
    slo_target=None,
):
    n = num_disks
    return SchedulingSetup(
        num_disks=n,
        mapping=np.asarray(mapping, dtype=np.int64),
        sizes=np.asarray(sizes, dtype=float),
        access_overhead=np.full(n, float(oh)),
        transfer_rate=np.full(n, float(rate)),
        threshold=np.full(n, float(th)),
        spindown_time=np.full(n, float(down)),
        spinup_time=np.full(n, float(up)),
        slo_target=slo_target,
        slo_percentile=95.0,
    )


# -- registry -------------------------------------------------------------------


def test_registry_names_default_first():
    names = request_scheduler_names()
    assert names[0] == DEFAULT_SCHEDULER == "fifo"
    assert set(names) == {"fifo", "slack_defer", "batch_release", "spinup_coalesce"}


def test_make_by_name_and_instance_passthrough():
    assert isinstance(make_request_scheduler("slack_defer"), SlackDefer)
    assert isinstance(make_request_scheduler(None), Fifo)
    ready = BatchRelease(window=4.0)
    assert make_request_scheduler(ready) is ready
    with pytest.raises(ConfigError, match="ready RequestScheduler"):
        make_request_scheduler(ready, {"window": 5.0})


def test_unknown_name_and_unknown_param_rejected():
    with pytest.raises(ConfigError, match="unknown request scheduler"):
        make_request_scheduler("edf")
    with pytest.raises(ConfigError, match="unknown params"):
        make_request_scheduler("batch_release", {"slack": 1.0})


# -- params normalization -------------------------------------------------------


def test_normalize_dict_and_pairs_agree():
    want = (("max_hold", 9.0), ("window", 4.0))
    assert normalize_scheduler_params({"window": 4, "max_hold": 9}) == want
    assert normalize_scheduler_params([("window", 4.0), ("max_hold", 9)]) == want
    assert normalize_scheduler_params(None) == ()
    assert normalize_scheduler_params(()) == ()


@pytest.mark.parametrize(
    "bad",
    [
        {"window": True},          # bool is not a numeric param
        {"window": "big"},
        {4: 1.0},
        [("window",)],             # malformed pair
        [("window", 1.0, 2.0)],
        "window=4",
        [("window", 1.0), ("window", 2.0)],  # duplicate
    ],
)
def test_normalize_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        normalize_scheduler_params(bad)


# -- config round-trip ----------------------------------------------------------


def test_config_normalizes_and_instantiates():
    cfg = StorageConfig(
        num_disks=2,
        scheduler="slack_defer",
        scheduler_params={"target": 20, "margin": 0.5},
    )
    assert cfg.scheduler_params == (("margin", 0.5), ("target", 20.0))
    sched = cfg.request_scheduler()
    assert isinstance(sched, SlackDefer)
    assert sched.params["target"] == 20.0


def test_config_fifo_routes_to_unscheduled_path():
    assert StorageConfig(num_disks=2).request_scheduler() is None
    cfg = StorageConfig(num_disks=2, scheduler="fifo", scheduler_params=())
    assert cfg.request_scheduler() is None


def test_config_rejects_bad_scheduler_at_construction():
    with pytest.raises(ConfigError):
        StorageConfig(num_disks=2, scheduler="edf")
    with pytest.raises(ConfigError):
        StorageConfig(
            num_disks=2, scheduler="batch_release",
            scheduler_params={"slack": 1.0},
        )


def test_build_setup_uniform_and_fleet():
    sizes = np.array([10.0, 20.0])
    mapping = np.array([0, 1], dtype=np.int64)
    cfg = StorageConfig(num_disks=2, idleness_threshold=7.0)
    s = build_scheduling_setup(cfg, cfg.resolved_fleet(), sizes, mapping)
    assert s.num_disks == 2
    assert np.all(s.threshold == 7.0)
    assert np.all(s.transfer_rate == float(cfg.spec.transfer_rate))
    # The setup's mapping is a private copy, not a view.
    s.mapping[0] = 99
    assert mapping[0] == 0
    cfg_f = StorageConfig(num_disks=2, fleet="mixed_generation")
    fleet = cfg_f.resolved_fleet(2)
    sf = build_scheduling_setup(cfg_f, fleet, sizes, mapping)
    assert np.array_equal(sf.transfer_rate, fleet.transfer_rates)
    assert np.array_equal(sf.spinup_time, fleet.spinup_times)


# -- the disk forecast ----------------------------------------------------------


def test_disk_model_projection_states():
    # The forecast the compiled rules are held to (the twin tests check
    # them against it release by release).
    m = OracleDiskModel(_setup())  # oh=0 rate=1 th=5 down=2 up=3, avail=0
    # Within the idle threshold: starts immediately.
    assert m.projected_start(0, 4.0) == 4.0
    # Past threshold + spin-down: fully asleep, pay the wake.
    assert m.sleeping(0, 7.0) and not m.sleeping(0, 6.9)
    assert m.projected_start(0, 10.0) == 13.0
    # Mid-spin-down (threshold crossed, heads not yet parked): the
    # descent must drain before the wake starts.
    assert m.projected_start(0, 6.0) == 7.0 + 3.0
    # Busy disk: queue behind the backlog.
    m.commit(0, 4.0, 2.0)  # starts at 4, service 2 -> avail 6
    assert m.avail[0] == 6.0
    assert m.projected_start(0, 5.0) == 6.0
    assert m.service_time(0, 2.5) == 2.5


def test_slack_defer_batches_onto_epochs_and_respects_stress():
    # th=20 keeps the disk awake across the holds below.
    awake = dict(sizes=(1.0,), th=20.0)
    s = SlackDefer(target=10.0, margin=1.0, max_hold=100.0)
    s.reset(_setup(**awake))
    # Idle disk at t=2: released at the epoch (the grid defaults to the
    # budget, 10), projected response 8 + 1 <= budget.
    assert s.release(2.0, 0, "read") == 10.0
    # On-epoch arrivals pass through (the batch is *now*).
    s.reset(_setup(**awake))
    assert s.release(10.0, 0, "read") == 10.0
    # Too close to the previous epoch: the projected response at the next
    # one (9.5 + 1) busts the budget, so the request passes through.
    s.reset(_setup(**awake))
    assert s.release(0.5, 0, "read") == 0.5
    # A deferral that would *cause* a wake is refused: with th=5 the disk
    # sleeps inside [2, 10), so releasing at 10 pays descent+wake
    # (start 10 at sd_end 7... wake to 13) -> 11 + 1 > budget.
    s.reset(_setup(sizes=(1.0,), th=5.0))
    assert s.release(2.0, 0, "read") == 2.0
    # NaN estimate (estimator not warmed up) is not stress.
    s.reset(_setup(**awake))
    assert s.release(2.0, 0, "read", slo_estimate=float("nan")) == 10.0
    # A live estimate above budget pins the request to its arrival.
    s.reset(_setup(**awake))
    assert s.release(2.0, 0, "read", slo_estimate=11.0) == 2.0
    # An epoch farther than max_hold away means pass-through, not a
    # truncated mid-window shift.
    tight = SlackDefer(target=10.0, margin=1.0, max_hold=2.0)
    tight.reset(_setup(**awake))
    assert tight.release(2.0, 0, "read") == 2.0
    tight.reset(_setup(**awake))
    assert tight.release(8.5, 0, "read") == 10.0  # epoch within reach
    # An explicit window overrides the budget-sized grid.
    fine = SlackDefer(target=10.0, margin=1.0, window=4.0)
    fine.reset(_setup(**awake))
    assert fine.release(2.0, 0, "read") == 4.0
    # Unplaced file passes through and leaves the model untouched.
    s2 = SlackDefer(target=10.0)
    s2.reset(_setup(mapping=(-1,)))
    assert s2.release(3.0, 0, "read") == 3.0
    assert s2._model.avail[0] == 0.0


def test_slack_defer_validation():
    with pytest.raises(ConfigError, match="positive response-time target"):
        SlackDefer().reset(_setup(slo_target=None))
    # Falls back to the run's slo_target when the param is unset, and
    # the epoch grid falls back to the budget.
    s = SlackDefer()
    s.reset(_setup(slo_target=25.0))
    assert s._budget == pytest.approx(0.8 * 25.0)
    assert s._window == s._budget
    with pytest.raises(ConfigError, match="margin"):
        SlackDefer(target=10.0, margin=1.5).reset(_setup())
    with pytest.raises(ConfigError, match="max_hold"):
        SlackDefer(target=10.0, max_hold=-1.0).reset(_setup())
    with pytest.raises(ConfigError, match="window"):
        SlackDefer(target=10.0, window=0.0).reset(_setup())


def test_batch_release_quantizes_onto_epochs():
    b = BatchRelease(window=10.0, max_hold=30.0)
    b.reset(_setup())
    assert b.release(3.0, 0, "read") == 10.0
    assert b.release(10.0, 0, "read") == 10.0  # on-epoch: no hold
    assert b.release(10.1, 0, "read") == 20.0
    capped = BatchRelease(window=10.0, max_hold=5.0)
    capped.reset(_setup())
    assert capped.release(12.0, 0, "read") == 17.0
    with pytest.raises(ConfigError, match="window"):
        BatchRelease(window=0.0).reset(_setup())


def test_spinup_coalesce_groups_wakes():
    c = SpinupCoalesce(max_hold=45.0)
    c.reset(_setup(mapping=(0, 0), sizes=(1.0, 1.0)))
    # avail=0, th=5, down=2: asleep from t=7.  First sleeper opens the
    # group at its deadline; later arrivals join it.
    assert c.release(10.0, 0, "read") == 55.0
    assert c.release(12.0, 1, "read") == 55.0
    # After both commits the model is busy until 60 (58+1, then +1), so
    # an arrival after the group released finds the disk spinning.
    assert c._model.avail[0] == 60.0
    assert c.release(61.0, 0, "read") == 61.0
    # Once the disk drifts back to sleep (60 + th + down = 67), a new
    # group opens.
    c2 = SpinupCoalesce(max_hold=45.0)
    c2.reset(_setup())
    c2._model.avail[0] = 60.0
    c2._group_until[0] = 55.0  # stale, already released
    assert c2.release(70.0, 0, "read") == 115.0


def test_fifo_releases_at_arrival():
    f = Fifo()
    f.reset(_setup())
    assert f.release(3.25, 0, "read") == 3.25


# -- fifo byte-identity pins ----------------------------------------------------


def _small_run(seed=7):
    wl = generate_workload(
        SyntheticWorkloadParams(
            n_files=200, arrival_rate=0.8, duration=260.0, seed=seed
        )
    )
    cfg = StorageConfig(
        num_disks=10,
        load_constraint=0.6,
        cache_policy="lru",
        dpm_policy="slo_feedback",
        slo_target=25.0,
        control_interval=60.0,
    )
    mapping = (
        np.random.default_rng(seed)
        .integers(0, cfg.num_disks, size=wl.catalog.n)
        .astype(np.int64)
    )
    return wl, cfg, mapping


def _assert_bit_identical(a, b, note):
    assert np.array_equal(a.response_times, b.response_times), note
    assert np.array_equal(a.energy_per_disk, b.energy_per_disk), note
    assert a.energy == b.energy, note
    assert np.array_equal(a.requests_per_disk, b.requests_per_disk), note
    assert a.state_durations == b.state_durations, note
    assert (a.arrivals, a.completions, a.spinups, a.spindowns) == (
        b.arrivals, b.completions, b.spinups, b.spindowns
    ), note


@pytest.mark.parametrize("engine", ["event", "fast"])
def test_fifo_config_is_byte_identical_to_default(engine):
    """`scheduler="fifo"` must not change a single bit of the output —
    the ISSUE's regression pin for the classic unscheduled path."""
    wl, cfg, mapping = _small_run()
    base = StorageSystem(
        wl.catalog, mapping, cfg.with_overrides(engine=engine)
    ).run(wl.stream)
    pinned = StorageSystem(
        wl.catalog,
        mapping,
        cfg.with_overrides(engine=engine, scheduler="fifo"),
    ).run(wl.stream)
    _assert_bit_identical(base, pinned, f"engine={engine}")


@pytest.mark.parametrize("engine", ["event", "fast"])
def test_fifo_through_machinery_is_byte_identical(engine, monkeypatch):
    """Force a `Fifo` instance through the full scheduling machinery
    (release queue / kernel pre-pass): zero holds must be arithmetic
    no-ops, bit for bit.  Guards the `if offset:` / `holds is None`
    fast paths against accidental float perturbation."""
    wl, cfg, mapping = _small_run()
    base = StorageSystem(
        wl.catalog, mapping, cfg.with_overrides(engine=engine)
    ).run(wl.stream)
    monkeypatch.setattr(
        StorageConfig, "request_scheduler", lambda self: Fifo()
    )
    forced = StorageSystem(
        wl.catalog, mapping, cfg.with_overrides(engine=engine)
    ).run(wl.stream)
    _assert_bit_identical(base, forced, f"engine={engine} (forced Fifo)")


def test_boundary_tie_release_lands_after_the_boundary():
    """A release landing *exactly* on a control boundary (k * interval)
    submits after the boundary fires, identically in both engines.  The
    randomized differential axis cannot produce this tie (float window
    vs float interval), so it is pinned here: window 10 divides
    interval 60, putting many releases exactly on boundaries."""
    wl, cfg, mapping = _small_run(seed=11)
    cfg = cfg.with_overrides(
        scheduler="batch_release",
        scheduler_params={"window": 10.0, "max_hold": 30.0},
    )
    event = StorageSystem(
        wl.catalog, mapping, cfg.with_overrides(engine="event")
    ).run(wl.stream)
    fast = StorageSystem(
        wl.catalog, mapping, cfg.with_overrides(engine="fast")
    ).run(wl.stream)
    assert event.arrivals == fast.arrivals
    assert event.completions == fast.completions
    np.testing.assert_allclose(
        np.sort(fast.response_times),
        np.sort(event.response_times),
        rtol=1e-9,
        atol=1e-9,
    )
    np.testing.assert_allclose(
        fast.energy_per_disk, event.energy_per_disk, rtol=1e-9, atol=1e-6
    )
    # The tie actually occurred: some release (quantized onto a
    # 10-multiple) coincides with a 60-multiple boundary.
    times = np.asarray(wl.stream.times)
    epochs = np.minimum(np.ceil(times / 10.0) * 10.0, times + 30.0)
    assert np.any(np.maximum(times, epochs) % 60.0 == 0.0)


# -- bad holds and misbehaving schedulers ----------------------------------------

DEFERRING = ["slack_defer", "batch_release", "spinup_coalesce"]


@pytest.mark.parametrize("engine", ["event", "fast"])
@pytest.mark.parametrize("name", DEFERRING)
def test_nan_max_hold_fails_the_run(name, engine):
    """NaN slipped past a ``< 0`` check: batch_release held without a
    bound, and spinup_coalesce produced NaN releases the fast kernel
    dropped as censored while the event engine crashed untyped."""
    wl, cfg, mapping = _small_run()
    cfg = cfg.with_overrides(
        engine=engine, scheduler=name, scheduler_params={"max_hold": math.nan}
    )
    with pytest.raises(ConfigError, match="max_hold"):
        StorageSystem(wl.catalog, mapping, cfg).run(wl.stream)


@pytest.mark.parametrize("name", DEFERRING)
def test_infinite_max_hold_agrees_across_engines(name):
    """An unbounded hold stays a valid setting, read alike by both
    engines (spinup_coalesce's infinite groups never release)."""
    wl, cfg, mapping = _small_run()
    cfg = cfg.with_overrides(
        scheduler=name, scheduler_params={"max_hold": math.inf}
    )
    event, fast = (
        StorageSystem(
            wl.catalog, mapping, cfg.with_overrides(engine=engine)
        ).run(wl.stream)
        for engine in ("event", "fast")
    )
    assert (event.arrivals, event.completions) == (
        fast.arrivals, fast.completions
    )
    np.testing.assert_allclose(
        np.sort(fast.response_times), np.sort(event.response_times),
        rtol=1e-9, atol=1e-9,
    )


class _Misbehaving(RequestScheduler):
    """Not registered: a ready instance handed to the engines."""

    name = "misbehaving"

    def __init__(self, how):
        super().__init__()
        self.how = how

    def release_many(self, times, file_ids, writes, slo_estimate):
        if self.how == "nan":
            return [math.nan] * len(times)
        return [t - 1.0 for t in times]  # before the arrival


@pytest.mark.parametrize("engine", ["event", "fast"])
@pytest.mark.parametrize("how", ["nan", "early"])
def test_bad_release_raises_on_both_engines(engine, how, monkeypatch):
    wl, cfg, mapping = _small_run()
    monkeypatch.setattr(
        StorageConfig, "request_scheduler", lambda self: _Misbehaving(how)
    )
    with pytest.raises(SimulationError, match="at or after its arrival"):
        StorageSystem(
            wl.catalog, mapping, cfg.with_overrides(engine=engine)
        ).run(wl.stream)


def test_short_release_block_raises_on_the_fast_kernel(monkeypatch):
    class Short(_Misbehaving):
        def release_many(self, times, file_ids, writes, slo_estimate):
            return list(times[1:])

    wl, cfg, mapping = _small_run()
    monkeypatch.setattr(
        StorageConfig, "request_scheduler", lambda self: Short("short")
    )
    with pytest.raises(SimulationError, match="releases for"):
        StorageSystem(
            wl.catalog, mapping, cfg.with_overrides(engine="fast")
        ).run(wl.stream)
