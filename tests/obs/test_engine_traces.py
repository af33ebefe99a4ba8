"""What the engines actually emit: timelines, cache churn, control pushes.

The event engine reports the full per-disk state timeline (its spans must
tile ``[0, T]`` exactly); the fast kernel reports spin transitions with
emission invariant under chunking (the observability analogue of the
chunked-vs-monolithic bit-identity axis).
"""

from __future__ import annotations

from collections import Counter

import pytest

from obsutil import CACHE, DPM, DURATION, ENGINES, NUM_DISKS, run_traced

from repro.obs.hooks import RunObserver
from repro.obs.trace import TraceRecorder


def record(engine: str, **overrides) -> TraceRecorder:
    recorder = TraceRecorder()
    run_traced(engine, observer=recorder, **overrides)
    return recorder


def test_event_engine_spans_tile_the_horizon():
    recorder = record("event")
    by_disk = {}
    for disk, state, start, end in recorder.state_spans:
        assert end > start, (disk, state, start, end)
        by_disk.setdefault(disk, []).append((start, end, state))
    assert set(by_disk) == set(range(NUM_DISKS))
    for disk, spans in by_disk.items():
        spans.sort()
        assert spans[0][0] == 0.0, disk
        assert spans[-1][1] == DURATION, disk
        for (_, end, _), (start, _, _) in zip(spans, spans[1:]):
            assert end == start, disk  # gapless and overlap-free


def test_event_engine_sees_every_transition():
    recorder = record("event")
    result = run_traced("event")
    states = Counter(state for _, state, _, _ in recorder.state_spans)
    assert states["spinup"] == result.spinups
    assert states["spindown"] == result.spindowns
    assert result.spindowns > 0  # the scenario exercises transitions


def test_fast_kernel_transition_spans_match_result():
    recorder = record("fast")
    result = run_traced("fast")
    states = Counter(state for _, state, _, _ in recorder.state_spans)
    assert states["spinup"] == result.spinups
    assert states["spindown"] == result.spindowns
    assert result.spindowns > 0
    for _, _, start, end in recorder.state_spans:
        assert 0.0 <= start < end <= DURATION


@pytest.mark.parametrize("chunk_size", (7, 64))
def test_fast_kernel_trace_is_chunking_invariant(chunk_size):
    """Chunked and monolithic runs emit the same events — spans compared
    as multisets (flush boundaries interleave disks differently), the
    arrival-ordered streams exactly."""
    mono = record("fast", mixed=True, **CACHE)
    chunked = record(
        "fast",
        mixed=True,
        **CACHE,
        chunk_size=chunk_size,
    )
    assert sorted(mono.state_spans) == sorted(chunked.state_spans)
    assert mono.cache_events == chunked.cache_events
    assert mono.placements == chunked.placements
    assert mono.threshold_events == chunked.threshold_events


@pytest.mark.parametrize("engine", ENGINES)
def test_cache_events_match_cache_stats(engine):
    recorder = record(engine, **CACHE)
    result = run_traced(engine, **CACHE)
    kinds = Counter(kind for _, kind, _ in recorder.cache_events)
    assert kinds["hit"] == result.cache_stats.hits
    assert kinds["miss"] == result.cache_stats.misses
    assert kinds["evict"] == result.cache_stats.evictions
    assert kinds["admit"] >= result.cache_stats.insertions
    assert result.cache_stats.hits > 0
    for time, kind, file_id in recorder.cache_events:
        assert 0.0 <= time <= DURATION
        assert file_id >= 0


def test_threshold_pushes_agree_across_engines():
    pushes = {}
    for engine in ENGINES:
        pushes[engine] = record(engine, **DPM).threshold_events
    assert pushes["event"], "controller never pushed thresholds"
    assert pushes["event"] == pushes["fast"]
    times = [t for t, _ in pushes["event"]]
    assert times == sorted(times)
    assert all(len(th) == NUM_DISKS for _, th in pushes["event"])


@pytest.mark.parametrize("engine", ENGINES)
def test_placements_agree_with_final_mapping(engine):
    recorder = record(engine, mixed=True)
    result = run_traced(engine, mixed=True)
    assert recorder.placements, "mixed stream produced no placements"
    for time, file_id, disk in recorder.placements:
        assert 0.0 <= time <= DURATION
        assert result.final_mapping[file_id] == disk


@pytest.mark.parametrize("policy", ("lru", "lfu", "fifo", "clock"))
def test_cache_events_agree_across_engines(policy):
    """The fast kernel hands its cache events over in batches; the event
    engine reports each as it happens.  The recorded sequences match event
    for event, monolithic and chunked."""
    overrides = {**CACHE, "cache_policy": policy}
    event = record("event", mixed=True, **overrides)
    kinds = Counter(kind for _, kind, _ in event.cache_events)
    assert kinds["hit"] and kinds["evict"]
    for chunk_size in (None, 7):
        fast = record("fast", mixed=True, chunk_size=chunk_size, **overrides)
        assert fast.cache_events == event.cache_events
        assert fast.placements == event.placements


def test_single_event_observer_sees_the_batched_sequence():
    """An observer that implements only ``on_cache_event`` receives the
    fast kernel's batches one event at a time, in the recorded order."""

    class SingleEvents(RunObserver):
        def __init__(self):
            self.events = []

        def on_cache_event(self, time, kind, file_id):
            self.events.append((time, kind, file_id))

    single = SingleEvents()
    run_traced("fast", observer=single, mixed=True, **CACHE)
    assert single.events
    assert single.events == record("fast", mixed=True, **CACHE).cache_events
