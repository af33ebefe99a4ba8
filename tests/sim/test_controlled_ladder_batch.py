"""The compiled walk against the oracle's per-request ``serve``.

``_serve_coupled`` walks every batch of a run in arrival order through the
C routine of :mod:`repro.native`.  Without a cache it must evolve exactly
the state per-request ``serve_oracle.serve`` does in arrival order,
controlled or not: starts, ``avail``/``load``/``pt``/``pv``, per-rung
park/descent/wake residencies, spin counts, gap logs and span lists in
order, bit for bit.  Each stream has one file per request, of size
``transfer time x rate`` on its disk; the oracle is given ``size / rate``
as its transfer time, so both sides see the same floats.

Gaps are drawn around the threshold-scaled rung entries (just below, on,
and just above each), plus same-instant arrivals and arrivals queued
behind the backlog, over ``two_state``, ``nap`` and ``drpm4`` pools, a
one-rung ladder and a mixed fleet, with thresholds of 0, finite values
and ``inf`` (controlled rows include ``inf`` rows).  Streams are cut into
batches at random, so state must carry across calls.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import serve_oracle as oracle
from repro.disk.dpm import DpmLadder, LadderRung, make_dpm_ladder
from repro.disk.specs import ST3500630AS, WD10EADS
from repro.errors import SimulationError
from repro.sim.fastkernel import _DiskBank, _serve_coupled, _Walk
from repro.system.placement import make_placement_policy

HORIZON = 4_000.0
INTERVAL = 250.0
FLAT = DpmLadder("flat", (LadderRung("idle", 9.0),))
KINDS = ("uniform", "mixed", "one_rung", "two_state", "nap")


def _fleet(kind):
    """``(ladders, specs, num_disks)``, one ladder and spec per disk."""
    specs = [ST3500630AS, WD10EADS, ST3500630AS, WD10EADS]
    uniform = {
        "uniform": (make_dpm_ladder("drpm4", ST3500630AS), ST3500630AS, 4),
        "one_rung": (FLAT, ST3500630AS, 2),
        "two_state": (
            make_dpm_ladder("two_state", ST3500630AS), ST3500630AS, 3
        ),
        "nap": (make_dpm_ladder("nap", WD10EADS), WD10EADS, 3),
    }
    if kind in uniform:
        ladder, spec, n = uniform[kind]
        return (ladder,) * n, (spec,) * n, n
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
    arrival times, file sizes and starts.  Each idle gap (measured
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
    rate = float(bank.rate_a[d])
    ts, sizes, starts = [], [], []
    t = 0.5
    while t < HORIZON * 0.95:
        size = float(rng.uniform(0.01, 0.04)) * rate
        ts.append(t)
        sizes.append(size)
        starts.append(oracle.serve(bank, d, t, size / rate))
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
    return ts, sizes, starts


class _Walker:
    """Serves a stream through the compiled walk, one file per request:
    file ``i`` of size ``sizes[i]`` on disk ``disks[i]``."""

    def __init__(self, bank, disks, sizes):
        self.bank = bank
        self.mapping = np.array(disks, dtype=np.int64)
        self.sizes = np.array(sizes, dtype=float)
        self.walk = _Walk(
            self.sizes, self.mapping, np.zeros(len(bank.avail)),
            make_placement_policy(), bank, False,
        )

    def serve(self, times, starts, lo, hi):
        """Walk requests ``[lo, hi)`` as one batch into ``starts[lo:hi]``."""
        d_req = np.empty(hi - lo, dtype=np.int64)
        comp, resp = np.empty((2, hi - lo))
        _serve_coupled(
            self.walk, np.arange(lo, hi),
            np.asarray(times[lo:hi], dtype=float), None, starts[lo:hi],
            d_req, comp, resp, lo,
        )
        assert d_req.tolist() == self.mapping[lo:hi].tolist()


def _serve_oracle(bank, disks, sizes, times, starts, lo, hi):
    """Per-request ``serve`` over requests ``[lo, hi)`` in arrival order,
    with transfer time ``size / rate`` on each request's disk."""
    for i in range(lo, hi):
        d = int(disks[i])
        starts[i] = oracle.serve(
            bank, d, float(times[i]), float(sizes[i]) / float(bank.rate_a[d])
        )


def _state(bank):
    return (
        bank.avail.tolist(), bank.load.tolist(), bank.pt.tolist(),
        bank.pv.tolist(), oracle.gap_logs(bank), oracle.span_logs(bank),
        bank.park_t.tolist(), bank.down_t.tolist(), bank.wake_t.tolist(),
        bank.n_up.tolist(), bank.n_down.tolist(),
    )


def _banks(n, kind, rows, controlled, log_spans=False, pushed=None):
    """``n`` identical banks: controlled ones get ``rows[1:pushed]`` pushed
    (all rows by default), fixed ones run ``rows[0]``."""
    ladders, specs, _ = _fleet(kind)
    banks = []
    for _ in range(n):
        if controlled:
            bank = _DiskBank(
                specs, ladders, rows[0], HORIZON, interval=INTERVAL
            )
            for row in rows[1:pushed]:
                bank.push_thresholds(row)
        else:
            bank = _DiskBank(
                specs, ladders, rows[0], HORIZON, log_spans=log_spans
            )
        banks.append(bank)
    return banks


def _check_twins(rng, kind, banks, rows):
    batched, single = banks
    for d in range(len(batched.avail)):
        ts, sizes, starts_s = _drive(rng, single, rows, d)
        walker = _Walker(batched, np.full(len(ts), d), sizes)
        cuts = sorted({0, len(ts), *rng.integers(0, len(ts), 6).tolist()})
        starts_b = np.empty(len(ts))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            walker.serve(ts, starts_b, lo, hi)
        assert starts_b.tolist() == starts_s
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
    """Controlled banks: one disk's run walked in random batches vs one
    ``serve`` call per request."""
    rng = np.random.default_rng(seed)
    rows = _threshold_rows(rng, _fleet(kind)[2])
    _check_twins(rng, kind, _banks(2, kind, rows, controlled=True), rows)


@pytest.mark.parametrize("log_spans", [False, True])
@pytest.mark.parametrize("kind", ["uniform", "mixed", "one_rung", "two_state"])
@pytest.mark.parametrize("seed", range(3))
def test_fixed_serve_batch_matches_per_request_serve(kind, seed, log_spans):
    """Fixed thresholds (one per disk, disk 0 at ``inf``), with and
    without the observer's span logs."""
    rng = np.random.default_rng(100 + seed)
    rows = _threshold_rows(rng, _fleet(kind)[2])[5:6]
    banks = _banks(2, kind, rows, controlled=False, log_spans=log_spans)
    _check_twins(rng, kind, banks, rows)


def _merged_stream(rng, kind, rows):
    """Every disk's targeted arrivals (see :func:`_drive`) merged into one
    time-sorted stream; returns disks, times and file sizes."""
    (probe,) = _banks(1, kind, rows, controlled=True)
    per_disk = []
    for d in range(len(probe.avail)):
        ts, sizes, _ = _drive(rng, probe, rows, d)
        per_disk.append((np.full(len(ts), d), np.array(ts), np.array(sizes)))
    disks, times, sizes = (np.concatenate(c) for c in zip(*per_disk))
    order = np.argsort(times, kind="stable")
    return disks[order], times[order], sizes[order]


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(KINDS),
    mode=st.sampled_from(["fixed", "fixed_spans", "controlled", "clamped"]),
    n_cuts=st.integers(0, 12),
)
def test_compiled_core_matches_oracle(seed, kind, mode, n_cuts):
    """A multi-disk stream cut into random batches, walked by the compiled
    core and served one request at a time by the Python oracle on twin
    banks.  ``clamped`` pushes only some of the controlled rows, so late
    drains take the last pushed row."""
    rng = np.random.default_rng(seed)
    num_disks = _fleet(kind)[2]
    rows = _threshold_rows(rng, num_disks)
    if mode.startswith("fixed"):
        # One threshold per disk from 0 / finite / inf.
        rows = rng.choice([0.0, 2.0, 20.0, math.inf], size=(1, num_disks))
    disks, times, sizes = _merged_stream(rng, kind, rows)
    controlled = mode in ("controlled", "clamped")
    pushed = int(rng.integers(1, len(rows))) if mode == "clamped" else None
    native, python = _banks(
        2, kind, rows, controlled, log_spans=mode == "fixed_spans",
        pushed=pushed,
    )
    walker = _Walker(native, disks, sizes)
    n = len(times)
    cuts = sorted({0, n, *rng.integers(0, n, n_cuts).tolist()})
    starts_c = np.full(n, np.nan)
    starts_o = np.full(n, np.nan)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        walker.serve(times, starts_c, lo, hi)
        _serve_oracle(python, disks, sizes, times, starts_o, lo, hi)
        assert _state(native) == _state(python)
    assert starts_c.tobytes() == starts_o.tobytes()
    if controlled:
        assert any(native.gap_log)
    assert native.apply_tail()[1].tolist() == python.apply_tail()[1].tolist()
    assert _state(native) == _state(python)


@pytest.mark.parametrize("mode", ["fixed_spans", "controlled"])
def test_record_buffers_resume_mid_segment(monkeypatch, mode):
    """Record buffers far smaller than one batch's gap logs and spans:
    the walk stops, hands its records back and resumes, with the same
    lists in the same order as the oracle's pass."""
    import repro.sim.fastkernel as fastkernel

    rng = np.random.default_rng(7)
    rows = _threshold_rows(rng, 4)
    if mode == "fixed_spans":
        rows = rng.choice([0.0, 2.0, 20.0], size=(1, 4))
    disks, times, sizes = _merged_stream(rng, "uniform", rows)
    monkeypatch.setattr(fastkernel, "_LOG_CHUNK", 2 * 5 + 3)
    banks = _banks(
        2, "uniform", rows, mode == "controlled", log_spans=True
    )
    n = len(times)
    starts = [np.empty(n) for _ in banks]
    _Walker(banks[0], disks, sizes).serve(times, starts[0], 0, n)
    _serve_oracle(banks[1], disks, sizes, times, starts[1], 0, n)
    assert sum(map(len, oracle.span_logs(banks[0])[1])) > 100
    assert starts[0].tobytes() == starts[1].tobytes()
    assert _state(banks[0]) == _state(banks[1])


def test_disk_outside_pool_raises():
    """The walk stops at the request whose file maps outside the pool,
    having served the ones before it."""
    banks = _banks(2, "two_state", np.zeros((1, 3)), controlled=False)
    sizes = [1e6, 1e6]
    times = [1.0, 2.0]
    with pytest.raises(SimulationError, match="outside the 3-disk pool"):
        _Walker(banks[0], [0, 3], sizes).serve(times, np.empty(2), 0, 2)
    _serve_oracle(banks[1], [0], sizes, times, np.empty(1), 0, 1)
    assert _state(banks[0]) == _state(banks[1])


@pytest.mark.parametrize("serve_twin", ["oracle", "per_request"])
def test_wake_starting_exactly_at_horizon_is_not_billed(serve_twin):
    """A request arriving mid-descent whose descent ends exactly at the
    horizon: the wake would start at ``T``, so it is neither counted nor
    billed nor logged (pinned, since random draws never hit it)."""
    ladder = make_dpm_ladder("two_state", ST3500630AS)
    th = 7.5
    size = 0.5 * ST3500630AS.transfer_rate  # a transfer of exactly 0.5 s
    a = 0.0 + ST3500630AS.access_overhead + 0.5
    horizon = (a + th) + ladder.rungs[1].down_time
    banks = [
        _DiskBank((ST3500630AS,), (ladder,), [th], horizon, log_spans=True)
        for _ in range(2)
    ]
    d = np.zeros(2, dtype=np.int64)
    t = np.array([0.0, horizon - 1.0])
    sizes = np.array([size, size])
    _Walker(banks[0], d, sizes).serve(t, np.empty(2), 0, 2)
    if serve_twin == "oracle":
        state = oracle.walk_state(
            sizes, d, np.zeros(1), make_placement_policy(), banks[1], False
        )
        oracle.serve_coupled(
            state, np.arange(2), t, None, np.empty(2),
            np.empty(2, dtype=np.int64), np.empty(2), np.empty(2), 0,
        )
    else:
        _serve_oracle(banks[1], d, sizes, t, np.empty(2), 0, 2)
    assert banks[0].avail[0] > horizon
    assert banks[0].n_up.tolist() == [0] and banks[0].n_down.tolist() == [1]
    assert oracle.span_logs(banks[0])[2] == [[], []]
    assert _state(banks[0]) == _state(banks[1])


def test_segment_arrays_of_different_lengths_raise():
    (bank,) = _banks(1, "two_state", np.zeros((1, 3)), controlled=False)
    walker = _Walker(bank, [0, 1], [1e6, 1e6])
    with pytest.raises(SimulationError, match="differ in length"):
        _serve_coupled(
            walker.walk, np.arange(1), np.array([1.0, 2.0]), None,
            np.empty(2), np.empty(2, dtype=np.int64), np.empty(2),
            np.empty(2), 0,
        )
