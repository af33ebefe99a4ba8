"""Unit tests for the file dispatcher (routing, cache path, writes)."""

import math

import numpy as np
import pytest

from repro.cache import LRUCache
from repro.disk import DiskArray, DiskState, ST3500630AS
from repro.disk.fleet import Fleet
from repro.errors import CapacityError, SimulationError
from repro.sim import Environment
from repro.system.dispatcher import (
    Dispatcher,
    drive_scheduled_stream,
    drive_stream,
)
from repro.units import GB, MB
from repro.workload.arrivals import RequestStream


def _array(env, num_disks, threshold):
    """A uniform pool of Table 2 drives."""
    fleet = Fleet.uniform(ST3500630AS, threshold=threshold)
    return DiskArray(env, fleet.resolve(num_disks))


def build(env, num_disks=3, mapping=None, sizes=None, **kwargs):
    array = _array(env, num_disks, math.inf)
    if sizes is None:
        sizes = np.array([72 * MB, 144 * MB, 72 * MB])
    if mapping is None:
        mapping = np.array([0, 1, 2])
    return array, Dispatcher(env, array, mapping, sizes, **kwargs)


class TestRouting:
    def test_requests_follow_mapping(self, env):
        array, disp = build(env)
        disp.submit(0)
        disp.submit(1)
        env.run(until=100.0)
        assert array[0].stats.arrivals == 1
        assert array[1].stats.arrivals == 1
        assert array[2].stats.arrivals == 0

    def test_response_recorded_on_completion(self, env):
        _, disp = build(env)
        disp.submit(0)
        env.run(until=100.0)
        assert disp.completions == 1
        assert disp.response_times[0] == pytest.approx(1.0 + 0.01266)
        assert disp.served_from_cache == [False]

    def test_unallocated_read_raises(self, env):
        _, disp = build(env, mapping=np.array([-1, 1, 2]))
        with pytest.raises(SimulationError, match="unallocated"):
            disp.submit(0)

    def test_mapping_out_of_range_rejected(self, env):
        with pytest.raises(SimulationError):
            build(env, num_disks=2, mapping=np.array([0, 1, 5]))

    def test_mapping_shape_mismatch_rejected(self, env):
        with pytest.raises(SimulationError):
            build(env, mapping=np.array([0, 1]))

    def test_overpacked_initial_mapping_rejected(self, env):
        # Two 400 GB files on one 500 GB disk: free_bytes would silently go
        # -300 GB and corrupt every later write-allocation decision.
        sizes = np.array([400 * GB, 400 * GB, 72 * MB])
        with pytest.raises(CapacityError, match="disk 0"):
            build(
                env,
                mapping=np.array([0, 0, 1]),
                sizes=sizes,
                usable_capacity=500 * GB,
            )

    def test_packer_epsilon_overpack_tolerated(self, env):
        # The packers work against a normalized capacity with a 1e-9
        # feasibility epsilon; a few hundred excess bytes must not raise.
        usable = 500 * GB
        sizes = np.array([300 * GB, usable - 300 * GB + 100.0, 72 * MB])
        _, disp = build(
            env,
            mapping=np.array([0, 0, 1]),
            sizes=sizes,
            usable_capacity=usable,
        )
        assert disp.free_bytes[0] == pytest.approx(-100.0)


class TestHeterogeneousCapacities:
    """Overpack errors on capacity *vectors* must name the offending disk
    and judge it against **its own** budget, not a neighbor's."""

    def test_overpack_error_names_disk_and_its_own_capacity(self, env):
        # 200 GB lands on the small middle disk of a [1 TB, 100 GB, 1 TB]
        # pool: the error must blame disk 1 and quote *its* 100 GB.
        capacities = np.array([1000 * GB, 100 * GB, 1000 * GB])
        sizes = np.array([200 * GB, 72 * MB, 72 * MB])
        with pytest.raises(CapacityError) as err:
            build(
                env,
                mapping=np.array([1, 0, 2]),
                sizes=sizes,
                usable_capacity=capacities,
            )
        message = str(err.value)
        assert "disk 1" in message
        assert f"{100 * GB:.0f}" in message
        assert f"{1000 * GB:.0f}" not in message

    def test_each_disk_judged_against_its_own_budget(self, env):
        # The same 200 GB file is fine on a 1 TB disk even though the
        # 100 GB neighbor could never hold it.
        capacities = np.array([1000 * GB, 100 * GB, 1000 * GB])
        sizes = np.array([200 * GB, 90 * GB, 72 * MB])
        _, disp = build(
            env,
            mapping=np.array([0, 1, 2]),
            sizes=sizes,
            usable_capacity=capacities,
        )
        assert disp.free_bytes[0] == pytest.approx(800 * GB)
        assert disp.free_bytes[1] == pytest.approx(10 * GB)

    @pytest.mark.parametrize("engine", ["event", "fast"])
    def test_fleet_overpack_end_to_end(self, engine):
        # mixed_generation alternates 500 GB / 1 TB drives: 700 GB fits
        # the green disk 1 but overpacks the Seagate disk 0 — and the
        # error says so, on both engines.
        from repro.system import StorageConfig, StorageSystem
        from repro.workload.arrivals import RequestStream
        from repro.workload.catalog import FileCatalog

        catalog = FileCatalog(
            sizes=np.array([700 * GB, 72 * MB]),
            popularities=np.array([0.5, 0.5]),
        )
        # The 700 GB read needs ~7000 s of transfer; give it room.
        stream = RequestStream(
            times=np.array([1.0, 2.0]),
            file_ids=np.array([0, 1]),
            duration=20_000.0,
        )
        config = StorageConfig(engine=engine, fleet="mixed_generation")

        ok = StorageSystem(
            catalog, np.array([1, 0]), config, num_disks=2
        ).run(stream)
        assert ok.completions == 2

        with pytest.raises(CapacityError) as err:
            StorageSystem(
                catalog, np.array([0, 1]), config, num_disks=2
            ).run(stream)
        message = str(err.value)
        assert "disk 0" in message
        assert f"{500 * GB:.0f}" in message


class TestCachePath:
    def test_hit_skips_disk(self, env):
        cache = LRUCache(1 * GB)
        array, disp = build(env, cache=cache)
        disp.submit(0)
        env.run(until=50.0)  # miss -> disk -> admitted on completion
        disp.submit(0)
        env.run(until=100.0)
        assert cache.stats.hits == 1
        assert array[0].stats.arrivals == 1  # second request never hit disk
        assert disp.response_times[1] == 0.0
        assert disp.served_from_cache == [False, True]

    def test_hit_latency_recorded(self, env):
        cache = LRUCache(1 * GB)
        _, disp = build(env, cache=cache, cache_hit_latency=0.25)
        disp.submit(0)
        env.run(until=50.0)
        disp.submit(0)
        env.run(until=100.0)
        assert disp.response_times[1] == 0.25

    def test_admit_happens_after_completion(self, env):
        cache = LRUCache(1 * GB)
        _, disp = build(env, cache=cache)
        disp.submit(0)
        # Before the transfer finishes the file is not yet cached.
        assert 0 not in cache
        env.run(until=50.0)
        assert 0 in cache


class TestWrites:
    def test_write_to_existing_file_uses_its_disk(self, env):
        array, disp = build(env)
        disp.submit(1, kind="write")
        env.run(until=100.0)
        assert array[1].stats.writes == 1
        assert disp.write_count == 1

    def test_new_file_prefers_spinning_disk(self):
        env = Environment()
        array = _array(env, 2, 5.0)
        sizes = np.array([100 * MB, 100 * MB])
        mapping = np.array([0, -1])
        disp = Dispatcher(env, array, mapping, sizes)

        def scenario(env):
            yield env.timeout(30.0)
            # Untouched disks spun down at the 5 s threshold by now.
            assert array[1].state is DiskState.STANDBY
            # Wake disk 0 with a read; during its spin-up/serve it counts
            # as spinning while disk 1 stays in standby.
            disp.submit(0)
            yield env.timeout(1.0)
            disp.submit(1, kind="write")

        env.process(scenario(env))
        env.run(until=100.0)
        # The write landed on the spinning disk 0, not standby disk 1.
        assert disp.mapping[1] == 0
        assert array[0].stats.writes == 1

    def test_write_capacity_error(self, env):
        sizes = np.array([400 * GB, 200 * GB])
        mapping = np.array([0, -1])
        array = _array(env, 1, math.inf)
        disp = Dispatcher(
            env, array, mapping, sizes, usable_capacity=500 * GB
        )
        with pytest.raises(CapacityError):
            disp.submit(1, kind="write")

    def test_free_bytes_tracks_writes(self, env):
        array, disp = build(env, mapping=np.array([0, 0, -1]))
        before = disp.free_bytes[0]
        disp.submit(2, kind="write")
        env.run(until=100.0)
        written_disk = disp.mapping[2]
        assert disp.free_bytes[written_disk] <= before

    def test_spinning_branch_is_best_fit(self, env):
        # Both disks spinning (threshold inf fixture): the write lands on
        # the one with the *tightest* remaining space, not the emptiest.
        sizes = np.array([300 * GB, 100 * GB, 10 * GB])
        array, disp = build(env, mapping=np.array([0, 1, -1]), sizes=sizes)
        disp.submit(2, kind="write")
        env.run(until=10_000.0)
        assert disp.mapping[2] == 0  # 200 GB free beats 400 GB free
        assert array[0].stats.writes == 1

    def test_standby_fallback_is_worst_fit(self):
        # Whole pool asleep: the fallback wakes the disk with the *most*
        # free space, so one spin-up absorbs the most future writes.
        env = Environment()
        array = _array(env, 3, 2.0)
        sizes = np.array([300 * GB, 100 * GB, 10 * GB])
        mapping = np.array([0, 1, -1])
        disp = Dispatcher(env, array, mapping, sizes)

        def scenario(env):
            yield env.timeout(30.0)
            assert all(d.state is DiskState.STANDBY for d in array.disks)
            disp.submit(2, kind="write")

        env.process(scenario(env))
        env.run(until=10_000.0)
        assert disp.mapping[2] == 2  # untouched disk 2 has the most space
        assert array[2].stats.writes == 1


class TestDriveStream:
    def test_replays_arrival_times(self, env):
        array, disp = build(env)
        stream = RequestStream(
            times=np.array([5.0, 10.0]),
            file_ids=np.array([0, 2]),
            duration=20.0,
        )
        env.process(drive_stream(env, disp, stream))
        env.run(until=5.5)
        assert disp.arrivals == 1
        env.run(until=20.0)
        assert disp.arrivals == 2
        assert disp.completions == 2

    def test_simultaneous_arrivals(self, env):
        array, disp = build(env)
        stream = RequestStream(
            times=np.array([1.0, 1.0, 1.0]),
            file_ids=np.array([0, 1, 2]),
            duration=5.0,
        )
        env.process(drive_stream(env, disp, stream))
        env.run(until=5.0)
        assert disp.arrivals == 3

    def test_decreasing_times_raise(self, env):
        # Out-of-order timestamps used to be silently coalesced to env.now,
        # replaying the request at the wrong instant.
        _, disp = build(env)
        stream = [(5.0, 0), (3.0, 1)]
        env.process(drive_stream(env, disp, stream))
        with pytest.raises(SimulationError, match="non-decreasing"):
            env.run(until=100.0)
        assert disp.arrivals == 1  # only the in-order prefix was submitted

    def test_nan_time_raises(self, env):
        # A NaN arrival used to be served at the previous instant, and
        # the next out-of-order time then passed the check.
        _, disp = build(env)
        stream = [(1.0, 0), (math.nan, 1), (0.5, 2), (3.0, 0)]
        env.process(drive_stream(env, disp, stream))
        with pytest.raises(SimulationError, match="NaN"):
            env.run(until=100.0)
        assert disp.arrivals == 1

    def test_nan_time_raises_in_scheduled_stream(self, env):
        class PassThrough:
            def release(self, t, file_id, kind, slo_estimate=None):
                return t

        _, disp = build(env)
        stream = [(1.0, 0), (math.nan, 1), (0.5, 2), (3.0, 0)]
        env.process(drive_scheduled_stream(env, disp, stream, PassThrough()))
        with pytest.raises(SimulationError, match="NaN"):
            env.run(until=100.0)
