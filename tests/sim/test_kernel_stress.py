"""Property-based stress tests of the event kernel and drive substrate.

These hammer the kernel with randomized process structures and the drive
with randomized request patterns, asserting global invariants (clock
monotonicity, conservation, FIFO, accounting identities) rather than
specific values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import DiskDrive, ST3500630AS
from repro.disk.power import PowerModel
from repro.sim import AnyOf, Environment
from repro.units import MB


class TestKernelStress:
    @given(
        st.lists(
            st.lists(st.floats(0.0, 50.0), min_size=1, max_size=10),
            min_size=1,
            max_size=10,
        )
    )
    def test_random_process_forest_completes(self, delays_per_process):
        env = Environment()
        stamps = []
        finished = []

        def worker(env, delays):
            for d in delays:
                yield env.timeout(d)
                stamps.append(env.now)
            finished.append(True)

        for delays in delays_per_process:
            env.process(worker(env, delays))
        env.run()
        assert len(finished) == len(delays_per_process)
        assert stamps == sorted(stamps)
        assert env.now == pytest.approx(
            max(sum(d) for d in delays_per_process)
        )

    @given(
        st.lists(st.floats(0.1, 100.0), min_size=2, max_size=8),
        st.integers(0, 6),
    )
    def test_anyof_fires_at_minimum(self, delays, extra):
        env = Environment()
        timeouts = [env.timeout(d) for d in delays]
        cond = AnyOf(env, timeouts)
        env.run(until=cond)
        assert env.now == pytest.approx(min(delays))


class TestDriveStress:
    @settings(max_examples=25)
    @given(
        gaps=st.lists(st.floats(0.01, 400.0), min_size=1, max_size=40),
        sizes=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=40),
        threshold=st.floats(1.0, 300.0),
    )
    def test_accounting_invariants(self, gaps, sizes, threshold):
        env = Environment()
        drive = DiskDrive(env, ST3500630AS, idleness_threshold=threshold)
        n = min(len(gaps), len(sizes))
        times = np.cumsum(gaps[:n])
        requests = []

        def feeder(env):
            for t, mb in zip(times, sizes[:n]):
                yield env.timeout(t - env.now)
                requests.append(drive.submit(0, mb * MB))

        env.process(feeder(env))
        horizon = float(times[-1]) + 2_000.0
        env.run(until=horizon)

        durations = drive.state_durations()
        # 1. State time covers the whole horizon.
        assert sum(durations.values()) == pytest.approx(horizon)
        # 2. Energy identity.
        pm = PowerModel(ST3500630AS)
        assert drive.energy() == pytest.approx(pm.energy(durations))
        # 3. Conservation: everything submitted completed (huge horizon).
        assert drive.stats.completions == n
        # 4. Spin cycles alternate: ups never exceed downs.
        assert drive.stats.spinups <= drive.stats.spindowns
        assert drive.stats.spindowns <= drive.stats.spinups + 1
        # 5. Responses at least the service floor.
        assert min(r.done.value for r in requests) >= -1e-9

    @settings(max_examples=15)
    @given(st.integers(2, 15), st.integers(0, 2**31 - 1))
    def test_fifo_order_preserved(self, burst, seed):
        # A burst submitted together completes in submission order.
        env = Environment()
        drive = DiskDrive(env, ST3500630AS, idleness_threshold=math.inf)
        rng = np.random.default_rng(seed)
        order = []
        requests = []
        for i in range(burst):
            req = drive.submit(i, float(rng.uniform(1, 50)) * MB)
            req.done.callbacks.append(
                lambda ev, i=i: order.append(i)
            )
            requests.append(req)
        env.run(until=10_000.0)
        assert order == list(range(burst))


class TestFailureInjection:
    def test_dead_feeder_does_not_corrupt_drive(self):
        # A workload process dying mid-stream leaves the drive consistent.
        env = Environment()
        drive = DiskDrive(env, ST3500630AS, idleness_threshold=50.0)

        def doomed(env):
            drive.submit(0, 10 * MB)
            yield env.timeout(1.0)
            raise RuntimeError("feeder crashed")

        env.process(doomed(env))
        with pytest.raises(RuntimeError, match="feeder crashed"):
            env.run(until=1_000.0)
        # The drive can keep running in the same environment afterwards.
        drive.submit(1, 10 * MB)
        env.run(until=2_000.0)
        assert drive.stats.completions == 2
        assert sum(drive.state_durations().values()) == pytest.approx(2_000.0)

    def test_failed_completion_listener_propagates(self):
        env = Environment()
        drive = DiskDrive(env, ST3500630AS, idleness_threshold=math.inf)
        req = drive.submit(0, 10 * MB)

        def watcher(env):
            yield req.done
            raise ValueError("listener bug")

        env.process(watcher(env))
        with pytest.raises(ValueError, match="listener bug"):
            env.run(until=100.0)
