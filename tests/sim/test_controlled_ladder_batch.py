"""``_DiskBank.serve_batch`` (the hoisted per-disk loop) must evolve
exactly the state per-request ``serve`` does, controlled or not.

Twin banks see the same arrivals: one replays each disk's run through
``serve_batch`` in random segments, the other calls ``serve`` once per
request.  Gaps are drawn around the threshold-scaled rung entries (just
below, on, and just above each), plus same-instant arrivals, over a
mixed fleet with a one-rung ladder and an ``inf`` threshold row.  The
``two_state`` pool takes the inline one-descent-rung walk on every disk.
"""

import math

import numpy as np
import pytest

from repro.disk.dpm import DpmLadder, LadderRung, make_dpm_ladder
from repro.disk.specs import ST3500630AS, WD10EADS
from repro.sim.fastkernel import _DiskBank

HORIZON = 4_000.0
INTERVAL = 250.0
FLAT = DpmLadder("flat", (LadderRung("idle", 9.0),))


def _fleet(kind):
    specs = [ST3500630AS, WD10EADS, ST3500630AS, WD10EADS]
    if kind == "uniform":
        return make_dpm_ladder("drpm4", ST3500630AS), ST3500630AS, 4
    if kind == "one_rung":
        return FLAT, ST3500630AS, 2
    if kind == "two_state":
        return make_dpm_ladder("two_state", ST3500630AS), ST3500630AS, 3
    ladders = [
        make_dpm_ladder("drpm4", specs[0]),
        make_dpm_ladder("two_state", specs[1]),
        FLAT,
        make_dpm_ladder("nap", specs[3]),
    ]
    return ladders, specs, 4


def _threshold_rows(rng, num_disks):
    """Per-interval threshold vectors, one row per interval, with an
    ``inf`` row and exact-zero entries among random finite ones."""
    n_rows = int(HORIZON / INTERVAL) + 1
    rows = rng.choice([0.0, 2.0, 7.5, 20.0, 60.0], size=(n_rows, num_disks))
    rows[3] = math.inf
    rows[5, 0] = math.inf
    return rows


def _drive(rng, bank, rows, d):
    """Serve one disk's arrivals one at a time on ``bank``; returns the
    arrival times, transfer times and starts.  Each idle gap (measured
    from the disk's live ``avail``) lands just below, on or just above a
    scaled entry or descent end of a threshold the disk can see; some
    arrivals repeat the previous instant or queue behind the backlog."""
    marks = {0.0}
    for th in np.unique(rows[:, d]):
        entries = bank.ladders[d].scaled_entries(float(th))
        for e, dn in zip(entries, bank.dn[d]):
            if math.isfinite(e):
                marks.update((e, e + dn))
    marks = sorted(marks)
    ts, trs, starts = [], [], []
    t = 0.5
    while t < HORIZON * 0.95:
        tr = float(rng.uniform(0.01, 0.04))
        ts.append(t)
        trs.append(tr)
        starts.append(bank.serve(d, t, tr))
        r = rng.random()
        if r < 0.2:
            continue  # same instant
        a = bank.avail[d]
        if r < 0.3:
            gap = -float(rng.uniform(0.0, 0.02))  # queues behind the backlog
        else:
            gap = float(rng.choice(marks)) + float(
                rng.choice([-1e-9, 0.0, 1e-9, -0.3, 0.3, 5.0])
            )
        t = max(t, a + gap)
    return ts, trs, starts


def _state(bank):
    return (
        bank.avail, bank.load, bank.pt, bank.pv, bank.gap_log,
        bank.park_spans, bank.down_spans, bank.wake_spans,
        bank.park_t, bank.down_t, bank.wake_t, bank.n_up, bank.n_down,
    )


def _check_twins(rng, kind, banks, rows):
    batched, single = banks
    for d in range(len(batched.avail)):
        ts, trs, starts_s = _drive(rng, single, rows, d)
        cuts = sorted({0, len(ts), *rng.integers(0, len(ts), 6).tolist()})
        starts_b = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            starts_b += batched.serve_batch(d, ts[lo:hi], trs[lo:hi])
        assert starts_b == starts_s
    assert _state(batched) == _state(single)
    assert batched.apply_tail()[0].tolist() == single.apply_tail()[0].tolist()
    assert _state(batched) == _state(single)
    if kind != "one_rung":
        # The draw really exercised gap walks and wakes.
        assert sum(batched.n_up) > 0
        if batched.park_spans is not None:
            assert any(batched.park_spans[1:])


@pytest.mark.parametrize("kind", ["uniform", "mixed", "one_rung", "two_state"])
@pytest.mark.parametrize("seed", range(4))
def test_serve_batch_matches_per_request_serve(kind, seed):
    rng = np.random.default_rng(seed)
    ladder, spec, num_disks = _fleet(kind)
    rows = _threshold_rows(rng, num_disks)
    banks = [
        _DiskBank(
            num_disks, rows[0], ladder, spec, HORIZON, interval=INTERVAL
        )
        for _ in range(2)
    ]
    for bank in banks:
        for row in rows[1:]:
            bank.push_thresholds(row)
    _check_twins(rng, kind, banks, rows)


@pytest.mark.parametrize("log_spans", [False, True])
@pytest.mark.parametrize("kind", ["uniform", "mixed", "one_rung", "two_state"])
@pytest.mark.parametrize("seed", range(3))
def test_fixed_serve_batch_matches_per_request_serve(kind, seed, log_spans):
    """Fixed thresholds (one per disk, disk 0 at ``inf``), with and
    without the observer's span logs."""
    rng = np.random.default_rng(100 + seed)
    ladder, spec, num_disks = _fleet(kind)
    rows = _threshold_rows(rng, num_disks)[5:6]
    banks = [
        _DiskBank(
            num_disks, rows[0], ladder, spec, HORIZON, log_spans=log_spans
        )
        for _ in range(2)
    ]
    _check_twins(rng, kind, banks, rows)
