"""The event engine's exact schedule, frozen per drive and per request.

Totals (energy, response sums) can survive a reordered same-instant tie;
the transition history cannot.  Each scenario below runs on the event
engine with every drive's timeline history enabled, and the recorded
``event_schedule_golden.json`` holds, as float hex:

* every drive's ``(time, state)`` transition history, and
* the response times in completion order (cache hits at their arrival).

The scenarios cover the classic drive at thresholds 0, finite and
``inf``, the ``two_state`` and ``drpm4`` ladder drives, same-instant
arrivals (every arrival time is a whole second), a shared cache with
writes and placement, ``slo_feedback`` control boundaries that coincide
with arrivals, and ``slack_defer`` releases.  The goldens were recorded
before the event engine's run loop, timeouts and drive processes were
rewritten for speed, so they pin that the rewrite kept the schedule.

Re-record (only for an intended behaviour change) with
``PYTHONPATH=src python tests/sim/test_event_schedule_golden.py``.
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np
import pytest

from repro.disk.power import DiskState
from repro.system import StorageConfig, StorageSystem
from repro.units import GiB, MB
from repro.workload.arrivals import RequestStream
from repro.workload.catalog import FileCatalog
from repro.workload.mixed import MixedRequestStream

_GOLDEN_PATH = pathlib.Path(__file__).with_name("event_schedule_golden.json")


def _workload(seed, num_disks, n_files, count, duration, write_frac=0.0,
              n_new=0):
    """Catalog, stream and mapping with whole-second arrival times, so
    many arrivals share an instant (and land on control boundaries)."""
    rng = np.random.default_rng(seed)
    sizes = rng.uniform(5 * MB, 300 * MB, size=n_files)
    weights = rng.zipf(1.8, size=n_files).astype(float)
    popularities = weights / weights.sum()
    times = np.sort(np.floor(rng.uniform(0.0, duration, size=count)))
    file_ids = rng.choice(n_files, size=count, p=popularities)
    mapping = rng.integers(0, num_disks, size=n_files).astype(np.int64)
    if write_frac == 0.0:
        catalog = FileCatalog(sizes=sizes, popularities=popularities)
        return catalog, RequestStream(
            times=times, file_ids=file_ids, duration=duration
        ), mapping
    new_sizes = rng.uniform(5 * MB, 300 * MB, size=n_new)
    catalog = FileCatalog(
        sizes=np.concatenate([sizes, new_sizes]),
        popularities=np.concatenate([popularities, np.zeros(n_new)]),
    )
    mapping = np.concatenate([mapping, np.full(n_new, -1, dtype=np.int64)])
    kinds = np.where(rng.random(count) < write_frac, "write", "read")
    kinds = kinds.astype(object)
    slots = np.sort(rng.choice(count, size=n_new, replace=False))
    for slot, fid in zip(slots, range(n_files, n_files + n_new)):
        file_ids[slot] = fid
        kinds[slot] = "write"
    stream = MixedRequestStream(
        times=times, file_ids=file_ids, kinds=kinds, duration=duration
    )
    return catalog, stream, mapping


#: name -> (workload kwargs, config kwargs); all run on the event engine.
CASES = {
    "classic_finite": (
        dict(seed=1501, num_disks=3, n_files=30, count=90, duration=600.0),
        dict(num_disks=3, idleness_threshold=15.0),
    ),
    "classic_zero": (
        dict(seed=1502, num_disks=3, n_files=30, count=70, duration=500.0),
        dict(num_disks=3, idleness_threshold=0.0),
    ),
    "classic_inf": (
        dict(seed=1503, num_disks=2, n_files=20, count=60, duration=400.0),
        dict(num_disks=2, idleness_threshold=math.inf),
    ),
    "two_state_finite": (
        dict(seed=1504, num_disks=3, n_files=30, count=80, duration=600.0),
        dict(num_disks=3, idleness_threshold=15.0, dpm_ladder="two_state"),
    ),
    "drpm4_zero": (
        dict(seed=1505, num_disks=3, n_files=30, count=70, duration=600.0),
        dict(num_disks=3, idleness_threshold=0.0, dpm_ladder="drpm4"),
    ),
    "drpm4_default": (
        dict(seed=1506, num_disks=3, n_files=30, count=70, duration=700.0),
        dict(num_disks=3, dpm_ladder="drpm4"),
    ),
    "cache_writes": (
        dict(seed=1507, num_disks=3, n_files=30, count=90, duration=600.0,
             write_frac=0.3, n_new=6),
        dict(num_disks=3, idleness_threshold=20.0, cache_policy="lru",
             cache_capacity=1.0 * GiB, cache_hit_latency=0.05),
    ),
    "slo_feedback_boundaries": (
        dict(seed=1508, num_disks=3, n_files=30, count=90, duration=600.0),
        dict(num_disks=3, idleness_threshold=10.0, dpm_policy="slo_feedback",
             control_interval=50.0, slo_target=8.0),
    ),
    "slo_feedback_drpm4": (
        dict(seed=1509, num_disks=3, n_files=30, count=80, duration=600.0),
        dict(num_disks=3, dpm_ladder="drpm4", dpm_policy="slo_feedback",
             control_interval=40.0, slo_target=12.0),
    ),
    "slack_defer": (
        dict(seed=1510, num_disks=3, n_files=30, count=90, duration=600.0),
        dict(num_disks=3, idleness_threshold=10.0, scheduler="slack_defer",
             slo_target=40.0),
    ),
    "slack_defer_controlled": (
        dict(seed=1511, num_disks=3, n_files=30, count=90, duration=600.0),
        dict(num_disks=3, idleness_threshold=10.0, scheduler="slack_defer",
             dpm_policy="slo_feedback", control_interval=50.0,
             slo_target=40.0),
    ),
}


def _label(state) -> str:
    return state.name.lower() if isinstance(state, DiskState) else str(state)


def run_case(name):
    """The schedule digest of one scenario: per-drive transition
    histories and responses in completion order, all as float hex."""
    wl_kw, cfg_kw = CASES[name]
    catalog, stream, mapping = _workload(**wl_kw)
    system = StorageSystem(
        catalog, mapping, StorageConfig(engine="event", **cfg_kw),
        num_disks=cfg_kw["num_disks"],
    )
    for drive in system.array.disks:
        # Same as building the drive with record_history=True at t=0.
        drive.timeline.history = [(system.env.now, drive.timeline.state)]
    result = system.run(stream)
    return {
        "history": [
            [[float(t).hex(), _label(s)] for t, s in drive.timeline.history]
            for drive in system.array.disks
        ],
        "responses": [float(r).hex() for r in result.response_times],
    }


def _golden():
    return json.loads(_GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_schedule_matches_golden(name):
    want = _golden()[name]
    got = run_case(name)
    assert len(got["history"]) == len(want["history"])
    for disk, (g, w) in enumerate(zip(got["history"], want["history"])):
        assert g == w, f"{name}: disk {disk} transition history drifted"
    assert got["responses"] == want["responses"], (
        f"{name}: responses (completion order) drifted"
    )


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - recording helper
    _GOLDEN_PATH.write_text(
        json.dumps({name: run_case(name) for name in sorted(CASES)},
                   separators=(",", ":")) + "\n"
    )
    print(f"wrote {_GOLDEN_PATH}")
