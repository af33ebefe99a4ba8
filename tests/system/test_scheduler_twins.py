"""Batched scheduler rules against their per-request twins.

Both engines feed the same :class:`~repro.system.scheduling.RequestScheduler`
in differently sized blocks: the fast kernel one control interval (or
chunk) per ``release_many`` call, the event engine one arrival per
``release``.  The differential harness compares the engines with each
other, so a rule that depended on the block split — or that drifted from
the per-request rule it replaced — would pass it as long as both engines
drifted alike.  Here ``release_many`` over random splits of a stream must
equal ``scheduling_oracle``'s per-request rules release by release, and
the forecast state (``avail``, the group deadlines) must match after every
block.

``slack_defer`` and ``spinup_coalesce`` decide only in the compiled
routine (:func:`repro.native.release_core`), ``batch_release`` only in
its Python loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.drive import READ, WRITE
from repro.system import StorageConfig, StorageSystem
from repro.system.scheduling import (
    RequestScheduler,
    SchedulingSetup,
    make_request_scheduler,
)
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from scheduling_oracle import ORACLES


def _scheduler(name, params, setup):
    sched = make_request_scheduler(name, params)
    sched.reset(setup)
    return sched


# Dyadic windows and holds make ``k * window - max_hold`` exact, so an
# arrival can sit exactly ``max_hold`` before an epoch.  Against 0.7,
# ``ceil(t / window) * window`` lands one ulp below an arrival one ulp past
# an epoch (k = 17).  A subnormal window overflows ``t / window``, so the
# next epoch is infinitely far.
windows = st.one_of(
    st.sampled_from([1.0, 2.5, 10.0, 0.7, 1e-310]),
    st.floats(0.5, 20.0, allow_nan=False),
)
holds = st.one_of(
    st.sampled_from([0.5, 2.5]), st.floats(0.0, 60.0), st.just(math.inf)
)


def _bits(xs):
    return [float(x).hex() for x in xs]


@st.composite
def _params(draw, name):
    """Scheduler params plus the epoch window and SLO budget they imply."""
    params = {"max_hold": draw(holds)}
    if name == "slack_defer":
        margin = draw(st.floats(0.1, 1.0))
        target = draw(st.floats(1.0, 40.0))
        window = draw(st.one_of(st.none(), windows))
        params.update(margin=margin, target=target)
        if window is not None:
            params["window"] = window
        budget = float(margin * target)
        return params, (budget if window is None else window), budget
    if name == "batch_release":
        params["window"] = draw(windows)
        return params, params["window"], 10.0
    return params, 10.0, 10.0


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(ORACLES)))
    params, window, budget = draw(_params(name))
    num_disks = draw(st.integers(1, 4))
    n_files = draw(st.integers(1, 8))
    setup = SchedulingSetup(
        num_disks=num_disks,
        # -1 = not yet placed.
        mapping=np.asarray(
            draw(st.lists(st.integers(-1, num_disks - 1),
                          min_size=n_files, max_size=n_files)),
            dtype=np.int64,
        ),
        sizes=np.asarray(
            draw(st.lists(st.floats(0.0, 5.0),
                          min_size=n_files, max_size=n_files)),
            dtype=float,
        ),
        access_overhead=np.asarray(
            draw(st.lists(st.floats(0.0, 1.0),
                          min_size=num_disks, max_size=num_disks))),
        transfer_rate=np.asarray(
            draw(st.lists(st.floats(0.5, 4.0),
                          min_size=num_disks, max_size=num_disks))),
        threshold=np.asarray(
            draw(st.lists(st.floats(0.0, 20.0),
                          min_size=num_disks, max_size=num_disks))),
        spindown_time=np.asarray(
            draw(st.lists(st.floats(0.0, 5.0),
                          min_size=num_disks, max_size=num_disks))),
        spinup_time=np.asarray(
            draw(st.lists(st.floats(0.0, 5.0),
                          min_size=num_disks, max_size=num_disks))),
        slo_target=None,
        slo_percentile=95.0,
    )
    # Arrivals: ties, short and long gaps, plus some exactly on epoch
    # multiples of the scheduler's window, one ulp below one (k = 0 gives
    # the negative subnormal whose epoch is +0.0) or above one, or exactly
    # max_hold before one.
    gaps = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(3.0, 60.0)),
        max_size=80,
    ))
    hold = params["max_hold"]
    on_epoch = [
        t
        for k in draw(st.lists(st.integers(0, 40), max_size=20))
        for t in (
            k * window,
            math.nextafter(k * window, -math.inf),
            math.nextafter(k * window, math.inf),
            *((k * window - hold,) if hold < k * window else ()),
        )
    ]
    times = sorted(np.cumsum(gaps).tolist() + on_epoch)
    n = len(times)
    # Out-of-range ids on both sides of the catalog pass through.
    file_ids = draw(st.lists(st.integers(-2, n_files + 1),
                             min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cuts = sorted(set(draw(st.lists(st.integers(0, n), max_size=12))))
    edges = [0, *cuts, n]
    blocks = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    # One estimate per block: none, not warmed up, below, at and above the
    # slack budget.
    estimates = draw(st.lists(
        st.sampled_from([None, math.nan, 0.5 * budget, budget, 2.0 * budget]),
        min_size=len(blocks), max_size=len(blocks),
    ))
    return name, params, setup, times, file_ids, writes, blocks, estimates


def _assert_same_state(sched, oracle, note):
    model = getattr(oracle, "_model", None)
    if model is not None:
        assert _bits(sched._model.avail) == _bits(model.avail), note
    if hasattr(oracle, "_group_until"):
        assert _bits(sched._group_until) == _bits(oracle._group_until), note


@given(case=cases(), all_read_as_none=st.booleans(), as_arrays=st.booleans())
@settings(max_examples=400, deadline=None)
def test_release_many_over_any_split_matches_per_request_oracle(
    case, all_read_as_none, as_arrays
):
    """Blocks as the fast kernel passes them (float64, int64 and bool
    arrays) or as lists."""
    name, params, setup, times, file_ids, writes, blocks, estimates = case
    sched = _scheduler(name, params, setup)
    oracle = ORACLES[name](**params)
    oracle.reset(setup)
    for (lo, hi), est in zip(blocks, estimates):
        ts, fs, ws = times[lo:hi], file_ids[lo:hi], writes[lo:hi]
        flags = None if all_read_as_none and not any(ws) else ws
        if as_arrays:
            ts, fs = np.asarray(ts), np.asarray(fs, dtype=np.int64)
            flags = None if flags is None else np.asarray(flags)
        got = sched.release_many(ts, fs, flags, est)
        want = [
            oracle.release(t, f, WRITE if w else READ, slo_estimate=est)
            for t, f, w in zip(times[lo:hi], file_ids[lo:hi], ws)
        ]
        note = f"{name} block [{lo}, {hi}) est={est}"
        assert _bits(got) == _bits(want), note
        _assert_same_state(sched, oracle, note)


@given(case=cases())
@settings(max_examples=100, deadline=None)
def test_release_of_one_matches_per_request_oracle(case):
    """The event engine's per-arrival ``release`` follows the same
    rule."""
    name, params, setup, times, file_ids, writes, blocks, estimates = case
    est = estimates[0] if estimates else None
    sched = _scheduler(name, params, setup)
    oracle = ORACLES[name](**params)
    oracle.reset(setup)
    for t, f, w in zip(times, file_ids, writes):
        kind = WRITE if w else READ
        got = sched.release(t, f, kind, slo_estimate=est)
        want = oracle.release(t, f, kind, slo_estimate=est)
        assert float(got).hex() == float(want).hex(), name
    _assert_same_state(sched, oracle, name)


def _one_disk_setup():
    one = np.ones(1)
    return SchedulingSetup(
        num_disks=1, mapping=np.zeros(1, dtype=np.int64), sizes=one,
        access_overhead=one, transfer_rate=one, threshold=5.0 * one,
        spindown_time=one, spinup_time=one, slo_target=None,
        slo_percentile=95.0,
    )


def test_overflowing_epoch_passes_slack_defer_through():
    """``t / window`` overflows for a subnormal window: the next epoch is
    infinitely far (once an ``OverflowError``), so ``slack_defer`` passes
    the request through, even with an unbounded hold and budget."""
    for max_hold in (30.0, math.inf):
        defer = _scheduler(
            "slack_defer",
            {"target": math.inf, "window": 1e-310, "max_hold": max_hold},
            _one_disk_setup(),
        )
        assert list(defer.release_many([5.0], [0], None, None)) == [5.0]
        assert defer.release(6.0, 0, READ) == 6.0
        # Both served at once: 5 + (1 + 1), then queued behind it.
        assert defer._model.avail[0] == 9.0


@pytest.mark.parametrize("max_hold", [30.0, math.inf])
def test_overflowing_epoch_holds_batch_release_to_max_hold(max_hold):
    """The same infinitely far epoch caps ``batch_release``'s hold at
    ``max_hold``, for list and array blocks alike."""
    batch = _scheduler(
        "batch_release", {"window": 1e-310, "max_hold": max_hold},
        _one_disk_setup(),
    )
    assert list(batch.release_many([5.0], [0], None, None)) == [
        5.0 + max_hold
    ]
    got = batch.release_many(np.array([5.0]), np.zeros(1, np.int64), None,
                             None)
    assert list(got) == [5.0 + max_hold]
    assert batch.release(6.0, 0, READ) == 6.0 + max_hold


class _NextSecond(RequestScheduler):
    """Not registered: holds each arrival to the next whole second and
    returns a plain list, as a user subclass written against lists
    would."""

    name = "next_second"

    def release_many(self, times, file_ids, writes, slo_estimate):
        return [float(math.floor(t)) + 1.0 for t in times]


def test_list_returning_subclass_runs_on_both_engines(monkeypatch):
    wl = generate_workload(
        SyntheticWorkloadParams(
            n_files=200, arrival_rate=0.8, duration=260.0, seed=7
        )
    )
    cfg = StorageConfig(num_disks=10, load_constraint=0.6)
    mapping = np.arange(wl.catalog.n, dtype=np.int64) % cfg.num_disks
    monkeypatch.setattr(
        StorageConfig, "request_scheduler", lambda self: _NextSecond()
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
    assert fast.completions > 0
    np.testing.assert_allclose(
        np.sort(fast.response_times), np.sort(event.response_times),
        rtol=1e-9, atol=1e-9,
    )
    np.testing.assert_allclose(
        fast.energy_per_disk, event.energy_per_disk, rtol=1e-9, atol=1e-6
    )
