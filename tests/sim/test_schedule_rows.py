"""Descent-schedule rows built from arrays, against per-disk
``DpmLadder.scaled_entries``, bit for bit.

A controlled bank builds each threshold row's schedules in one array
operation per distinct ladder
(:meth:`~repro.disk.dpm.DpmLadder.scaled_entries_array`).  Every row
must equal the scalar ``scaled_entries`` of each disk's ladder and
threshold, padded with ``inf`` past the ladder (a one-rung ladder's
schedule is ``(0, inf)``), or the walk would descend at other instants.
The draws cover thresholds at the ladder's own first entry, at 0, at
``inf``, and small ones whose scaled deeper entries cascade behind the
previous descent, on uniform, mixed, tiered and ``mixed_generation``
pools.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.dpm import DpmLadder, LadderRung, make_dpm_ladder
from repro.disk.fleet import Fleet, FleetDisk, make_fleet
from repro.disk.specs import ST3500630AS, WD10EADS
from repro.errors import ConfigError
from repro.sim.fastkernel import _DiskBank

FLAT = DpmLadder("flat", (LadderRung("idle", 9.0),))
#: Entries packed right behind each descent: any threshold below the
#: first entry scales the deeper entries into the previous descent, so
#: they cascade to ``prev + down_time``.
TIGHT = DpmLadder(
    "tight",
    (
        LadderRung("idle", 9.0),
        LadderRung("a", 6.0, entry=1.0, down_time=4.0),
        LadderRung("b", 3.0, entry=5.0, down_time=4.0),
        LadderRung("c", 1.0, entry=9.0, down_time=1.0),
    ),
)
TIERED = Fleet(
    "tiered",
    (
        FleetDisk(ST3500630AS, ladder="drpm4"),
        FleetDisk(WD10EADS, threshold=30.0),
    ),
)
LADDERS = (
    make_dpm_ladder("drpm4", ST3500630AS),
    make_dpm_ladder("nap", WD10EADS),
    make_dpm_ladder("two_state", ST3500630AS),
    FLAT,
    TIGHT,
)


def _pool(kind, num_disks=6):
    """``(ladders, specs, thresholds)`` of a pool, one entry per disk."""
    specs = (ST3500630AS,) * num_disks
    if kind == "uniform":
        ladder = LADDERS[0]
        return (ladder,) * num_disks, specs, [ladder.base_threshold] * num_disks
    if kind == "mixed":
        ladders = [LADDERS[d % len(LADDERS)] for d in range(num_disks)]
        return ladders, specs, [l.base_threshold for l in ladders]
    fleet = (
        make_fleet("mixed_generation").resolve(num_disks, "drpm4")
        if kind == "mixed_generation"
        else TIERED.resolve(num_disks)
    )
    assert fleet.has_ladders
    return fleet.ladders, fleet.specs, fleet.thresholds


def _expected(ladder, th):
    entries = ladder.scaled_entries(th)
    return (0.0, math.inf) if len(entries) == 1 else entries


def _assert_rows(bank, rows):
    width = bank._ent.shape[2]
    for k, row in enumerate(rows):
        for d, th in enumerate(row):
            want = _expected(bank.ladders[d], th)
            want = np.array(want + (math.inf,) * (width - len(want)))
            assert bank._ent[k, d].tobytes() == want.tobytes(), (k, d, th)


def _thresholds(ladders):
    """Per disk: its ladder's own first entry, 0, inf, a cascading small
    value or any finite one."""
    return st.tuples(
        *(
            st.one_of(
                st.just(l.base_threshold),
                st.sampled_from([0.0, math.inf, 0.25, 1e-300, 1e300]),
                st.floats(0.0, 1e4),
                st.floats(0.0, math.inf),
            )
            for l in ladders
        )
    )


@pytest.mark.parametrize(
    "kind", ["uniform", "mixed", "tiered", "mixed_generation"]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rows_match_scaled_entries(kind, data):
    ladders, specs, th0 = _pool(kind)
    rows = [np.asarray(th0, float).tolist()]
    # More rows than the bank's first allocation, so the tables grow.
    rows += [
        list(data.draw(_thresholds(ladders))) for _ in range(11)
    ]
    bank = _DiskBank(specs, ladders, rows[0], 1e4, interval=100.0)
    for row in rows[1:]:
        bank.push_thresholds(np.array(row))
    assert bank._ent.shape[0] > 8
    _assert_rows(bank, rows)
    assert bank._th[: len(rows)].tolist() == rows


@settings(max_examples=200, deadline=None)
@given(
    ladder=st.sampled_from(LADDERS),
    th=st.lists(
        st.one_of(
            st.sampled_from([0.0, 1.0, 5.0, math.inf, 2.5e-308, 1e308]),
            st.floats(0.0, math.inf),
        ),
        max_size=20,
    ),
)
def test_array_twin_of_scaled_entries(ladder, th):
    got = ladder.scaled_entries_array(th)
    assert got.shape == (len(th), len(ladder.rungs))
    for row, t in zip(got, th):
        assert row.tobytes() == np.array(ladder.scaled_entries(t)).tobytes()


def test_cascading_entries():
    # 0.5 / 1.0 scales entry 5 to 2.5, inside the descent 0.5 + 4.
    (row,) = TIGHT.scaled_entries_array([0.5])
    assert row.tolist() == [0.0, 0.5, 4.5, 8.5]
    assert row.tolist() == list(TIGHT.scaled_entries(0.5))


def test_fixed_bank_row_and_one_rung_padding():
    bank = _DiskBank(
        (ST3500630AS,) * len(LADDERS), LADDERS,
        [7.0, 0.0, math.inf, 3.0, 0.5], 1e4,
    )
    _assert_rows(bank, [[7.0, 0.0, math.inf, 3.0, 0.5]])
    assert bank._ent[0, 3, :2].tolist() == [0.0, math.inf]


@pytest.mark.parametrize("bad", [-1.0, math.nan, -math.inf])
@pytest.mark.parametrize("ladder", [LADDERS[0], FLAT])
def test_negative_or_nan_thresholds_raise(ladder, bad):
    with pytest.raises(ConfigError, match="threshold must be >= 0"):
        ladder.scaled_entries_array([1.0, bad])
    pool = ((ST3500630AS,) * 2, (ladder,) * 2)
    with pytest.raises(ConfigError, match="threshold must be >= 0"):
        _DiskBank(*pool, [1.0, bad], 1e4)
    bank = _DiskBank(*pool, [1.0, 1.0], 1e4, interval=10.0)
    with pytest.raises(ConfigError, match="threshold must be >= 0"):
        bank.push_thresholds(np.array([bad, 1.0]))


@pytest.mark.parametrize("row", [[1.0], [1.0, 2.0, 3.0], 1.0, [[1.0, 2.0]]])
def test_threshold_rows_need_one_value_per_disk(row):
    # A controlled bank's rows come from a DPM policy, which may be a
    # user's: a short, long or scalar row must not be broadcast.
    pool = ((ST3500630AS,) * 2, (LADDERS[0],) * 2)
    with pytest.raises(ConfigError, match="threshold row has shape"):
        _DiskBank(*pool, row, 1e4)
    bank = _DiskBank(*pool, [1.0, 1.0], 1e4, interval=10.0)
    with pytest.raises(ConfigError, match="threshold row has shape"):
        bank.push_thresholds(np.asarray(row))
