"""Write placement across the two engines: typed errors and policy state.

Both engines place by the same rule-table row, so a pool that fills in the
middle of a batch raises the same :class:`~repro.errors.CapacityError` on
both (with or without a shared cache, and with what the observer saw up to
the failing write handed over), a policy outside the table runs on the
event engine and is refused by the fast one, and round robin leaves its
cursor where the event engine leaves it.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.disk.specs import ST3500630AS
from repro.errors import CapacityError, ConfigError
from repro.obs.trace import TraceRecorder
from repro.system import StorageConfig, StorageSystem
from repro.system.placement import (
    RoundRobin,
    WritePlacementPolicy,
    make_placement_policy,
)
from repro.units import MB
from repro.workload.catalog import FileCatalog
from repro.workload.mixed import MixedRequestStream

HORIZON = 2_000.0


def _inputs(n_new=60, seed=3):
    """Ten 50 MB files on four disks, then ``n_new`` 50 MB files, each
    written once; reads and rewrites fill the gaps."""
    rng = np.random.default_rng(seed)
    n_old = 10
    sizes = np.full(n_old + n_new, 50 * MB)
    catalog = FileCatalog(
        sizes=sizes, popularities=np.full(sizes.size, 1.0 / sizes.size)
    )
    count = 3 * n_new
    times = np.sort(rng.uniform(0.0, HORIZON * 0.9, size=count))
    fid = rng.integers(0, n_old, size=count)
    kinds = np.where(rng.random(count) < 0.2, "write", "read").astype(object)
    slots = np.sort(rng.choice(count, size=n_new, replace=False))
    for slot, f in zip(slots, range(n_old, n_old + n_new)):
        fid[slot] = f
        kinds[slot] = "write"
    mapping = np.concatenate(
        [np.arange(n_old) % 4, np.full(n_new, -1)]
    ).astype(np.int64)
    stream = MixedRequestStream(
        times=times, file_ids=fid, kinds=kinds, duration=HORIZON
    )
    return catalog, stream, mapping


def _config(engine, **kw):
    return StorageConfig(
        num_disks=4, idleness_threshold=20.0, engine=engine, **kw
    )


@pytest.mark.parametrize("cache", [None, "lru"])
@pytest.mark.parametrize("chunk_size", [None, 17])
def test_pool_filling_mid_batch_raises_alike(cache, chunk_size):
    """Room for 30 of the 60 new files: both engines raise the same
    message, and each observer saw the same placements and cache events
    before the failing write."""
    catalog, stream, mapping = _inputs()
    spec = replace(ST3500630AS, capacity=500 * MB)
    seen = {}
    for engine in ("event", "fast"):
        cfg = _config(engine, spec=spec, cache_policy=cache,
                      cache_capacity=200 * MB, chunk_size=chunk_size)
        recorder = TraceRecorder()
        with pytest.raises(CapacityError) as err:
            StorageSystem(catalog, mapping, cfg).run(stream, observer=recorder)
        seen[engine] = (
            str(err.value), recorder.placements, recorder.cache_events
        )
    assert seen["fast"] == seen["event"]
    message, placements, events = seen["fast"]
    assert message == "no disk has 50000000 free bytes for the written file"
    assert len(placements) == 30
    assert bool(events) == (cache is not None)


class _LastDisk(WritePlacementPolicy):
    """A policy outside the rule table: the highest-id disk with room."""

    name = "last_disk"

    def __init__(self):
        self.calls = 0

    def choose(self, ctx, size):
        self.calls += 1
        return int((ctx.free >= size).nonzero()[0][-1])


def _run_with(monkeypatch, policy, engine, **kw):
    monkeypatch.setattr(StorageConfig, "placement_policy", lambda self: policy)
    catalog, stream, mapping = _inputs(n_new=7)
    return StorageSystem(catalog, mapping, _config(engine, **kw)).run(stream)


def test_policy_outside_the_table_runs_on_the_event_engine_only(monkeypatch):
    policy = _LastDisk()
    result = _run_with(monkeypatch, policy, "event")
    assert policy.calls == 7
    assert (result.final_mapping[10:] == 3).all()
    with pytest.raises(ConfigError, match="registered write placement"):
        _run_with(monkeypatch, _LastDisk(), "fast")


def test_subclass_of_a_table_policy_is_refused_on_fast(monkeypatch):
    class Tweaked(RoundRobin):
        pass

    with pytest.raises(ConfigError, match="got a Tweaked"):
        _run_with(monkeypatch, Tweaked(), "fast")


RUNS = {
    "plain": {},
    "chunked": {"chunk_size": 7},
    "scheduled": {
        "scheduler": "slack_defer", "scheduler_params": {"max_hold": 15.0},
        "slo_target": 20.0, "chunk_size": 11,
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_round_robin_cursor_matches_the_event_engine(monkeypatch, name):
    """The fast run writes the cursor back into the policy object; it
    lands where the event engine's ``choose`` leaves it."""
    cursors, mappings = [], []
    for engine in ("event", "fast"):
        policy = make_placement_policy("round_robin")
        result = _run_with(monkeypatch, policy, engine, **RUNS[name])
        cursors.append(policy._cursor)
        mappings.append(result.final_mapping.tolist())
    assert cursors[0] == cursors[1] == 7 % 4
    assert mappings[0] == mappings[1]
