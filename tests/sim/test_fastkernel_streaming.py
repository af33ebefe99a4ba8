"""Out-of-core fast kernel: chunked execution equals monolithic at
engineered pathological boundaries, error contracts, and engine routing."""

import math

import numpy as np
import pytest

from repro.disk.drive import READ, WRITE
from repro.disk.fleet import Fleet
from repro.disk.specs import ST3500630AS as SPEC
from repro.errors import ConfigError, SimulationError
from repro.sim.fastkernel import (
    fast_unsupported_reason,
    simulate_fast,
    simulate_fast_chunked,
)
from repro.system import StorageConfig, StorageSystem
from repro.workload.arrivals import RequestStream
from repro.workload.catalog import FileCatalog
from repro.workload.chunked import StreamChunk
from repro.workload.mixed import MixedRequestStream


def _assert_identical(a, b, note=""):
    assert np.array_equal(a.response_times, b.response_times), note
    assert np.array_equal(a.energy_per_disk, b.energy_per_disk), note
    assert np.array_equal(a.final_mapping, b.final_mapping), note
    assert np.array_equal(a.requests_per_disk, b.requests_per_disk), note
    assert a.state_durations == b.state_durations, note
    assert a.arrivals == b.arrivals and a.completions == b.completions, note
    assert a.spinups == b.spinups and a.spindowns == b.spindowns, note


class _ListStream:
    """Minimal ChunkedStream over a hand-built chunk list."""

    def __init__(self, chunks, duration):
        self._chunks = chunks
        self.duration = duration

    def iter_chunks(self):
        return iter(self._chunks)


SIZES = np.full(8, 50e6)
MAPPING = np.arange(8, dtype=np.int64) % 2
POOL = Fleet.uniform(SPEC, threshold=5.0).resolve(2)


def _run(stream, duration, chunked=False, **kw):
    fn = simulate_fast_chunked if chunked else simulate_fast
    return fn(SIZES, MAPPING, POOL, stream, duration, **kw)


class TestPathologicalBoundaries:
    """Chunk boundaries landed exactly on the events that matter."""

    def _stream(self):
        # Disk 0 gets arrivals at 0 and 40 with a 40 s idle gap (threshold
        # 5 s → spin-down mid-gap); disk 1 stays busy around the boundary.
        times = np.array([0.0, 1.0, 12.0, 40.0, 41.0, 90.0])
        ids = np.array([0, 1, 3, 2, 5, 7])
        return RequestStream(times=times, file_ids=ids, duration=120.0)

    @pytest.mark.parametrize("cut", [1, 2, 3, 4, 5])
    def test_every_split_point(self, cut):
        stream = self._stream()
        mono = _run(stream, 120.0)
        chunks = [
            StreamChunk(times=stream.times[:cut], file_ids=stream.file_ids[:cut]),
            StreamChunk(times=stream.times[cut:], file_ids=stream.file_ids[cut:]),
        ]
        chunk = _run(_ListStream(chunks, 120.0), 120.0, chunked=True)
        _assert_identical(mono, chunk, f"cut={cut}")

    def test_empty_chunks_are_transparent(self):
        stream = self._stream()
        mono = _run(stream, 120.0)
        empty = StreamChunk(times=np.empty(0), file_ids=np.empty(0, np.int64))
        chunks = [
            empty,
            StreamChunk(times=stream.times[:3], file_ids=stream.file_ids[:3]),
            empty,
            StreamChunk(times=stream.times[3:], file_ids=stream.file_ids[3:]),
            empty,
        ]
        chunk = _run(_ListStream(chunks, 120.0), 120.0, chunked=True)
        _assert_identical(mono, chunk)

    def test_boundary_on_control_interval_edge(self):
        """An arrival exactly at a control boundary, in its own chunk."""
        from repro.control.controller import ThresholdController
        from repro.control.policies import make_dpm_policy

        times = np.array([0.0, 10.0, 30.0, 30.0, 55.0])
        ids = np.array([0, 2, 1, 3, 4])
        stream = RequestStream(times=times, file_ids=ids, duration=90.0)

        def dpm():
            return ThresholdController(
                make_dpm_policy("adaptive_timeout"), interval=30.0,
                num_disks=2, base_threshold=5.0, spec=SPEC,
            )

        mono = _run(stream, 90.0, dpm=dpm())
        for cut in (2, 3, 4):
            chunks = [
                StreamChunk(times=times[:cut], file_ids=ids[:cut]),
                StreamChunk(times=times[cut:], file_ids=ids[cut:]),
            ]
            chunk = _run(_ListStream(chunks, 90.0), 90.0, chunked=True,
                         dpm=dpm())
            _assert_identical(mono, chunk, f"cut={cut}")
            assert chunk.extra["dpm"]["thresholds"] == mono.extra["dpm"]["thresholds"]

    def test_trailing_empty_intervals_finalize(self):
        """All arrivals in the first interval; later intervals are empty —
        finish() must still walk every boundary to dpm.finalize."""
        from repro.control.controller import ThresholdController
        from repro.control.policies import make_dpm_policy

        times = np.array([0.0, 2.0])
        ids = np.array([0, 1])
        stream = RequestStream(times=times, file_ids=ids, duration=200.0)

        def run(s, chunked):
            dpm = ThresholdController(
                make_dpm_policy("adaptive_timeout"), interval=40.0,
                num_disks=2, base_threshold=5.0, spec=SPEC,
            )
            fn = simulate_fast_chunked if chunked else simulate_fast
            return fn(SIZES, MAPPING, POOL, s, 200.0, dpm=dpm)

        mono = run(stream, False)
        chunk = run(_ListStream(
            [StreamChunk(times=times, file_ids=ids)], 200.0), True)
        _assert_identical(mono, chunk)
        assert len(mono.extra["dpm"]["t_end"]) == 5  # 200/40 intervals
        assert chunk.extra["dpm"]["t_end"] == mono.extra["dpm"]["t_end"]

    def test_write_allocation_across_boundary(self):
        """A new file's first-touch write in chunk 1, re-read in chunk 2."""
        sizes = np.concatenate([SIZES, [70e6]])
        mapping = np.concatenate([MAPPING, [-1]])
        times = np.array([0.0, 5.0, 20.0, 45.0])
        ids = np.array([0, 8, 8, 8])
        kinds = np.array([READ, WRITE, READ, READ])
        stream = MixedRequestStream(
            times=times, file_ids=ids, kinds=kinds, duration=60.0
        )
        mono = simulate_fast(sizes, mapping, POOL, stream, 60.0)
        for cut in (1, 2, 3):
            chunks = [
                StreamChunk(times[:cut], ids[:cut], kinds=kinds[:cut]),
                StreamChunk(times[cut:], ids[cut:], kinds=kinds[cut:]),
            ]
            chunk = simulate_fast_chunked(
                sizes, mapping, POOL, _ListStream(chunks, 60.0), 60.0
            )
            _assert_identical(mono, chunk, f"cut={cut}")
            assert chunk.final_mapping[8] >= 0


class TestErrorContracts:
    def test_cross_chunk_monotonicity(self):
        chunks = [
            StreamChunk(times=[1.0, 5.0], file_ids=[0, 1]),
            StreamChunk(times=[4.0], file_ids=[2]),
        ]
        with pytest.raises(SimulationError, match="globally time-sorted"):
            _run(_ListStream(chunks, 10.0), 10.0, chunked=True)

    def test_within_chunk_monotonicity_keeps_old_message(self):
        class Raw:
            times = np.array([5.0, 3.0])
            file_ids = np.array([0, 1])
            duration = 10.0

        with pytest.raises(SimulationError, match="non-decreasing"):
            _run(Raw(), 10.0)

    def test_simulate_fast_rejects_chunked_stream(self):
        s = _ListStream([StreamChunk(times=[1.0], file_ids=[0])], 10.0)
        with pytest.raises(ConfigError, match="simulate_fast_chunked"):
            _run(s, 10.0)

    def test_chunked_rejects_array_stream(self):
        stream = RequestStream(times=[1.0], file_ids=[0], duration=10.0)
        with pytest.raises(ConfigError, match=r"iter_chunks"):
            _run(stream, 10.0, chunked=True)

    def test_chunked_duration_defaults_and_requires(self):
        s = _ListStream([StreamChunk(times=[1.0], file_ids=[0])], 50.0)
        r = simulate_fast_chunked(SIZES, MAPPING, POOL, s, None)
        assert r.duration == 50.0
        s.duration = None
        with pytest.raises(ConfigError, match="duration"):
            simulate_fast_chunked(SIZES, MAPPING, POOL, s, None)

    def test_bad_metrics_mode(self):
        stream = RequestStream(times=[1.0], file_ids=[0], duration=10.0)
        with pytest.raises(ConfigError, match="metrics_mode"):
            _run(stream, 10.0, metrics_mode="bounded")

    def test_unallocated_read_in_later_chunk(self):
        mapping = MAPPING.copy()
        mapping[7] = -1
        chunks = [
            StreamChunk(times=[1.0], file_ids=[0]),
            StreamChunk(times=[5.0], file_ids=[7]),
        ]
        with pytest.raises(SimulationError, match="unallocated"):
            simulate_fast_chunked(
                SIZES, mapping, POOL, _ListStream(chunks, 10.0), 10.0
            )

    def test_unsupported_reason(self):
        assert fast_unsupported_reason(
            RequestStream(times=[1.0], file_ids=[0], duration=2.0)
        ) is None
        assert fast_unsupported_reason(_ListStream([], 10.0)) is None

        class Opaque:
            pass

        reason = fast_unsupported_reason(Opaque())
        assert reason is not None and "array-backed" in reason


class TestStreamingMode:
    def test_streaming_summarizes_the_full_run(self):
        cat = FileCatalog(
            sizes=SIZES, popularities=np.full(8, 1 / 8)
        )
        stream = RequestStream.poisson(cat.popularities, 0.2, 2000.0, rng=1)
        full = _run(stream, 2000.0)
        streamed = _run(stream, 2000.0, metrics_mode="streaming")
        assert streamed.response_times is None
        stats = streamed.response_stats
        assert stats.count == full.completions
        assert stats.max == full.response_times.max()
        assert stats.min == full.response_times.min()
        assert streamed.mean_response == pytest.approx(
            full.response_times.mean(), rel=1e-12
        )
        assert np.array_equal(full.energy_per_disk, streamed.energy_per_disk)

    def test_zero_completion_streaming_run(self):
        # One arrival censored exactly at the horizon: 0 completions.
        stream = RequestStream(times=[10.0], file_ids=[0], duration=10.0)
        r = _run(stream, 10.0, metrics_mode="streaming")
        assert r.arrivals == 0 and r.completions == 0
        with pytest.warns(RuntimeWarning, match="no completed requests"):
            assert math.isnan(r.mean_response)


class TestStorageRouting:
    def _catalog(self):
        return FileCatalog(sizes=SIZES, popularities=np.full(8, 1 / 8))

    def test_chunk_size_config_routes_to_chunked(self):
        cat = self._catalog()
        stream = RequestStream.poisson(cat.popularities, 0.1, 800.0, rng=2)
        mono = StorageSystem(
            cat, MAPPING, StorageConfig(num_disks=2, engine="fast")
        ).run(stream)
        chunk = StorageSystem(
            cat, MAPPING,
            StorageConfig(num_disks=2, engine="fast", chunk_size=7),
        ).run(stream)
        _assert_identical(mono, chunk)

    def test_chunked_stream_accepted_by_both_engines(self):
        cat = self._catalog()
        parent = RequestStream.poisson(cat.popularities, 0.1, 800.0, rng=3)
        view = parent.chunks(11)
        fast = StorageSystem(
            cat, MAPPING, StorageConfig(num_disks=2, engine="fast")
        ).run(view)
        mono = StorageSystem(
            cat, MAPPING, StorageConfig(num_disks=2, engine="fast")
        ).run(parent)
        _assert_identical(mono, fast)
        event = StorageSystem(
            cat, MAPPING, StorageConfig(num_disks=2, engine="event")
        ).run(view, duration=parent.duration)
        assert event.arrivals == mono.arrivals
        assert event.completions == mono.completions
        np.testing.assert_allclose(
            np.sort(event.response_times), np.sort(mono.response_times),
            rtol=1e-9, atol=1e-9,
        )
