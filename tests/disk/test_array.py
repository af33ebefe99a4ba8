"""Unit tests for the disk array aggregation."""

import math

import pytest

from repro.disk import DiskArray, DiskState, ST3500630AS
from repro.disk.fleet import Fleet
from repro.errors import ConfigError
from repro.sim import Environment
from repro.units import MB


def _array(env, num_disks, threshold=None):
    """A uniform pool of Table 2 drives."""
    fleet = Fleet.uniform(ST3500630AS, threshold=threshold)
    return DiskArray(env, fleet.resolve(num_disks))


class TestArray:
    def test_construction(self, env):
        array = _array(env, 5, math.inf)
        assert len(array) == 5
        assert array[3].disk_id == 3

    def test_invalid_count(self, env):
        with pytest.raises(ConfigError):
            _array(env, 0)

    def test_submit_routes_to_disk(self, env):
        array = _array(env, 3, math.inf)
        req = array.submit(1, file_id=7, size=72 * MB)
        env.run(until=req.done)
        assert array[1].stats.completions == 1
        assert array[0].stats.completions == 0

    def test_total_energy_is_sum(self, env):
        array = _array(env, 4, math.inf)
        env.run(until=100.0)
        assert array.total_energy() == pytest.approx(
            array.energy_per_disk().sum()
        )
        # All idle: 4 disks * 9.3 W * 100 s.
        assert array.total_energy() == pytest.approx(4 * 9.3 * 100)

    def test_state_durations_aggregate(self, env):
        array = _array(env, 2, math.inf)
        env.run(until=50.0)
        durations = array.state_durations()
        assert durations[DiskState.IDLE] == pytest.approx(100.0)

    def test_spin_counters(self):
        env = Environment()
        array = _array(env, 3, 10.0)
        env.run(until=100.0)
        assert array.total_spindowns() == 3
        assert array.total_spinups() == 0

    def test_requests_per_disk(self, env):
        array = _array(env, 3, math.inf)
        array.submit(0, 0, 1 * MB)
        array.submit(0, 1, 1 * MB)
        array.submit(2, 2, 1 * MB)
        env.run(until=10.0)
        assert array.requests_per_disk().tolist() == [2, 0, 1]
        assert array.total_completions() == 3

    def test_always_on_normalization(self, env):
        array = _array(env, 10, math.inf)
        env.run(until=1_000.0)
        assert array.fleet.always_on_energy(1_000.0) == pytest.approx(
            10 * 9.3 * 1_000
        )
        # All-idle array costs exactly the always-on baseline.
        assert array.normalized_power_cost() == pytest.approx(1.0)

    def test_normalized_cost_below_one_with_spindown(self):
        env = Environment()
        array = _array(env, 10, 5.0)
        env.run(until=10_000.0)
        assert array.normalized_power_cost() < 0.2

    def test_negative_duration_rejected(self, env):
        array = _array(env, 1)
        with pytest.raises(ConfigError):
            array.fleet.always_on_energy(-1.0)
