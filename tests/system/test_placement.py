"""Unit tests for the write-placement policy registry."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigError
from repro.system.config import StorageConfig
from repro.system.placement import (
    DEFAULT_WRITE_POLICY,
    PLACEMENT_POLICIES,
    PlacementContext,
    WritePlacementPolicy,
    make_placement_policy,
    placement_policy_names,
    register_placement_policy,
)


def ctx(spinning, free, load=None, time=0.0):
    free = np.asarray(free, dtype=float)
    return PlacementContext(
        time=time,
        spinning=np.asarray(spinning, dtype=bool),
        free=free,
        load=(
            np.zeros_like(free)
            if load is None
            else np.asarray(load, dtype=float)
        ),
    )


def choose(name, context, size):
    policy = make_placement_policy(name)
    policy.reset(context.free.shape[0])
    return policy.choose(context, size)


class TestRegistry:
    def test_expected_policies_registered(self):
        names = placement_policy_names()
        assert names[0] == DEFAULT_WRITE_POLICY
        for required in (
            "spinning_best_fit",
            "spinning_worst_fit",
            "first_fit_spinning",
            "round_robin",
            "coldest_disk",
            "fullest_spinning",
            "hottest_spinning",
        ):
            assert required in names

    def test_make_by_name_and_passthrough(self):
        policy = make_placement_policy("round_robin")
        assert policy.name == "round_robin"
        assert make_placement_policy(policy) is policy
        assert make_placement_policy(None).name == DEFAULT_WRITE_POLICY

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown write placement"):
            make_placement_policy("quantum_fit")

    def test_duplicate_registration_rejected(self):
        class Dup(WritePlacementPolicy):
            name = DEFAULT_WRITE_POLICY

        with pytest.raises(ConfigError, match="duplicate"):
            register_placement_policy(Dup)
        assert PLACEMENT_POLICIES[DEFAULT_WRITE_POLICY] is not Dup

    def test_config_validates_policy_name(self):
        cfg = StorageConfig(write_policy="coldest_disk")
        assert cfg.placement_policy().name == "coldest_disk"
        with pytest.raises(ConfigError, match="write placement"):
            StorageConfig(write_policy="nope")

    def test_config_returns_fresh_instances(self):
        cfg = StorageConfig(write_policy="round_robin")
        assert cfg.placement_policy() is not cfg.placement_policy()


class TestDecisions:
    """Each policy's rule on a hand-constructed pool.

    Pool: free = [10, 40, 25, 100], spinning = [T, T, F, F].
    """

    FREE = [10.0, 40.0, 25.0, 100.0]
    SPIN = [True, True, False, False]

    def test_spinning_best_fit(self):
        # Tightest spinning fit: disk 0 (10 free) for a 5-byte file.
        assert choose("spinning_best_fit", ctx(self.SPIN, self.FREE), 5) == 0
        # Too big for disk 0: disk 1 is the remaining spinning fit.
        assert choose("spinning_best_fit", ctx(self.SPIN, self.FREE), 20) == 1
        # No spinning disk fits: worst-fit fallback -> disk 3 (100 free).
        assert choose("spinning_best_fit", ctx(self.SPIN, self.FREE), 50) == 3

    def test_spinning_worst_fit(self):
        # Most room among spinning: disk 1 (40 free).
        assert choose("spinning_worst_fit", ctx(self.SPIN, self.FREE), 5) == 1
        # Fallback matches the paper's worst-fit standby rule.
        assert choose("spinning_worst_fit", ctx(self.SPIN, self.FREE), 50) == 3

    def test_first_fit_spinning(self):
        assert choose("first_fit_spinning", ctx(self.SPIN, self.FREE), 5) == 0
        assert choose("first_fit_spinning", ctx(self.SPIN, self.FREE), 20) == 1
        assert choose("first_fit_spinning", ctx(self.SPIN, self.FREE), 50) == 3

    def test_fullest_spinning_differs_only_on_fallback(self):
        # Spinning branch identical to spinning_best_fit...
        assert choose("fullest_spinning", ctx(self.SPIN, self.FREE), 5) == 0
        # ...but once no spinning disk fits, the fallback picks the
        # fullest feasible disk, not the emptiest one.
        free = [10.0, 15.0, 25.0, 100.0]
        assert choose("fullest_spinning", ctx(self.SPIN, free), 20) == 2
        assert choose("spinning_best_fit", ctx(self.SPIN, free), 20) == 3

    def test_coldest_disk_ignores_spin_state(self):
        load = [5.0, 1.0, 0.5, 3.0]
        assert choose("coldest_disk", ctx(self.SPIN, self.FREE, load), 5) == 2
        # Infeasible disks are excluded even when coldest.
        assert (
            choose("coldest_disk", ctx(self.SPIN, self.FREE, load), 30) == 1
        )

    def test_coldest_disk_tie_breaks_low_id(self):
        assert choose("coldest_disk", ctx(self.SPIN, self.FREE, None), 5) == 0

    def test_hottest_spinning_reads_the_heat_ledger(self):
        # Busiest *spinning* disk with room: disk 0 (load 5 > 1).
        load = [5.0, 1.0, 9.0, 3.0]
        assert (
            choose("hottest_spinning", ctx(self.SPIN, self.FREE, load), 5)
            == 0
        )
        # Disk 0 infeasible for 20 bytes: disk 1 is the hot spinning fit;
        # disk 2 (load 9) is hotter but in standby and must not win.
        assert (
            choose("hottest_spinning", ctx(self.SPIN, self.FREE, load), 20)
            == 1
        )
        # No spinning disk fits: §1.1 worst-fit standby fallback (disk 3),
        # not the hottest standby disk.
        assert (
            choose("hottest_spinning", ctx(self.SPIN, self.FREE, load), 50)
            == 3
        )

    def test_hottest_spinning_tie_breaks_low_id(self):
        assert (
            choose("hottest_spinning", ctx(self.SPIN, self.FREE, None), 5)
            == 0
        )

    def test_round_robin_cursor_advances_and_skips_full_disks(self):
        policy = make_placement_policy("round_robin")
        policy.reset(4)
        picks = [policy.choose(ctx(self.SPIN, self.FREE), 20.0) for _ in range(4)]
        # Disk 0 (10 free) never fits a 20-byte file; cursor cycles 1,2,3.
        assert picks == [1, 2, 3, 1]
        policy.reset(4)
        assert policy.choose(ctx(self.SPIN, self.FREE), 5.0) == 0

    def test_all_policies_raise_on_no_room(self):
        for name in placement_policy_names():
            with pytest.raises(CapacityError):
                choose(name, ctx(self.SPIN, self.FREE), 1_000.0)

    def test_all_policies_never_pick_infeasible_disk(self):
        rng = np.random.default_rng(5)
        for name in placement_policy_names():
            policy = make_placement_policy(name)
            policy.reset(6)
            for _ in range(25):
                free = rng.uniform(0, 100, size=6)
                spinning = rng.uniform(size=6) < 0.5
                load = rng.uniform(0, 10, size=6)
                size = rng.uniform(0, 60)
                try:
                    disk = policy.choose(ctx(spinning, free, load), size)
                except CapacityError:
                    assert not np.any(free >= size)
                    continue
                assert free[disk] >= size
