"""Batched scheduler rules against their per-request twins.

Both engines feed the same :class:`~repro.system.scheduling.RequestScheduler`
in differently sized blocks: the fast kernel one control interval (or
chunk) per ``release_many`` call, the event engine one arrival per
``release``.  The differential harness compares the engines with each
other, so a rule that depended on the block split — or that drifted from
the per-request rule it replaced — would pass it as long as both engines
drifted alike.  Here ``release_many`` over random splits of a stream must
equal ``scheduling_oracle``'s per-request rules release by release, and
the forecast state (``avail``, ``_group_until``) must match after every
block.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.disk.drive import READ, WRITE
from repro.system.scheduling import SchedulingSetup, make_request_scheduler
from scheduling_oracle import ORACLES

# Dyadic windows and holds make ``k * window - max_hold`` exact, so an
# arrival can sit exactly ``max_hold`` before an epoch.
windows = st.one_of(
    st.sampled_from([1.0, 2.5, 10.0]), st.floats(0.5, 20.0, allow_nan=False)
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
    # multiples of the scheduler's window or exactly max_hold before one.
    gaps = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(3.0, 60.0)),
        max_size=80,
    ))
    hold = params["max_hold"]
    on_epoch = [
        k * window - lead
        for k in draw(st.lists(st.integers(0, 40), max_size=20))
        for lead in ((0.0, hold) if hold < k * window else (0.0,))
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


@given(case=cases(), all_read_as_none=st.booleans())
@settings(max_examples=400, deadline=None)
def test_release_many_over_any_split_matches_per_request_oracle(
    case, all_read_as_none
):
    name, params, setup, times, file_ids, writes, blocks, estimates = case
    sched = make_request_scheduler(name, params)
    sched.reset(setup)
    oracle = ORACLES[name](**params)
    oracle.reset(setup)
    for (lo, hi), est in zip(blocks, estimates):
        ts, fs, ws = times[lo:hi], file_ids[lo:hi], writes[lo:hi]
        flags = None if all_read_as_none and not any(ws) else ws
        got = sched.release_many(ts, fs, flags, est)
        want = [
            oracle.release(t, f, WRITE if w else READ, slo_estimate=est)
            for t, f, w in zip(ts, fs, ws)
        ]
        note = f"{name} block [{lo}, {hi}) est={est}"
        assert _bits(got) == _bits(want), note
        _assert_same_state(sched, oracle, note)


@given(case=cases())
@settings(max_examples=100, deadline=None)
def test_release_of_one_matches_per_request_oracle(case):
    """The event engine's per-arrival ``release`` is ``release_many`` of
    one, so it follows the same rule."""
    name, params, setup, times, file_ids, writes, blocks, estimates = case
    sched = make_request_scheduler(name, params)
    sched.reset(setup)
    oracle = ORACLES[name](**params)
    oracle.reset(setup)
    est = estimates[0] if estimates else None
    for t, f, w in zip(times, file_ids, writes):
        kind = WRITE if w else READ
        got = sched.release(t, f, kind, slo_estimate=est)
        want = oracle.release(t, f, kind, slo_estimate=est)
        assert float(got).hex() == float(want).hex()
    _assert_same_state(sched, oracle, name)
