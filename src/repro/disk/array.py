"""An array of simulated drives (uniform or mixed) with aggregate accounting."""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.disk.dpm import DpmLadder
from repro.disk.drive import DiskDrive, DiskRequest
from repro.disk.fleet import ResolvedFleet
from repro.disk.power import DiskState, PowerModel
from repro.disk.specs import DiskSpec
from repro.errors import ConfigError
from repro.sim.environment import Environment

__all__ = ["DiskArray"]


class DiskArray:
    """``num_disks`` drives sharing one environment.

    Parameters
    ----------
    env, spec:
        As for :class:`~repro.disk.drive.DiskDrive`.
    num_disks:
        Pool size.
    idleness_threshold:
        Shared spin-down threshold (``None`` = break-even, or the
        ladder's native first entry when a ladder is given).
    ladder:
        Optional :class:`~repro.disk.dpm.DpmLadder` every drive descends
        while idle; ``None`` runs the classic two-state drive.
    fleet:
        Optional :class:`~repro.disk.fleet.ResolvedFleet`: per-drive
        specs, ladders and thresholds (overriding ``spec``/
        ``idleness_threshold``/``ladder``, which remain the uniform-pool
        sugar).  Each drive is built from *its own* slot, so a
        mixed-generation pool simulates every drive against its own
        power figures and break-even.
    """

    def __init__(
        self,
        env: Environment,
        spec: DiskSpec,
        num_disks: int,
        idleness_threshold: Optional[float] = None,
        record_history: bool = False,
        ladder: Optional[DpmLadder] = None,
        fleet: Optional[ResolvedFleet] = None,
    ) -> None:
        if num_disks < 1:
            raise ConfigError(f"num_disks must be >= 1, got {num_disks}")
        self.env = env
        if fleet is not None:
            if fleet.num_disks != num_disks:
                raise ConfigError(
                    f"fleet resolves {fleet.num_disks} disks but the array "
                    f"was asked for {num_disks}"
                )
            specs = fleet.specs
            ladders = fleet.ladders
            thresholds: List[Optional[float]] = [
                float(t) for t in fleet.thresholds
            ]
        else:
            specs = (spec,) * num_disks
            ladders = (ladder,) * num_disks
            thresholds = [idleness_threshold] * num_disks
        self.specs = tuple(specs)
        self.homogeneous_specs = len(set(self.specs)) == 1
        self.spec = self.specs[0]
        self.power_model = PowerModel(self.spec)
        self.disks: List[DiskDrive] = [
            DiskDrive(
                env,
                specs[i],
                disk_id=i,
                idleness_threshold=thresholds[i],
                record_history=record_history,
                ladder=ladders[i],
            )
            for i in range(num_disks)
        ]

    def __len__(self) -> int:
        return len(self.disks)

    def __getitem__(self, disk_id: int) -> DiskDrive:
        return self.disks[disk_id]

    def submit(self, disk_id: int, file_id: int, size: float, kind: str = "read") -> DiskRequest:
        """Enqueue a request on drive ``disk_id``."""
        return self.disks[disk_id].submit(file_id, size, kind)

    # -- aggregate accounting ---------------------------------------------------

    def energy_per_disk(self) -> np.ndarray:
        """Energy consumed so far by each drive (J)."""
        return np.array([d.energy() for d in self.disks], dtype=float)

    def total_energy(self) -> float:
        """Energy consumed so far by the whole array (J)."""
        return float(self.energy_per_disk().sum())

    def state_durations(self) -> Dict[DiskState, float]:
        """Per-state time summed over all drives."""
        totals: Dict[DiskState, float] = {}
        for d in self.disks:
            for state, t in d.state_durations().items():
                totals[state] = totals.get(state, 0.0) + t
        return totals

    def total_spinups(self) -> int:
        return sum(d.stats.spinups for d in self.disks)

    def total_spindowns(self) -> int:
        return sum(d.stats.spindowns for d in self.disks)

    def total_completions(self) -> int:
        return sum(d.stats.completions for d in self.disks)

    def requests_per_disk(self) -> np.ndarray:
        return np.array([d.stats.arrivals for d in self.disks], dtype=np.int64)

    # -- per-drive spec views (vectors the dispatcher/placement consume) --------

    def _spec_vector(self, attr: str) -> np.ndarray:
        return np.array(
            [float(getattr(s, attr)) for s in self.specs], dtype=float
        )

    @property
    def capacities(self) -> np.ndarray:
        """Raw per-drive capacities (bytes)."""
        return self._spec_vector("capacity")

    @property
    def access_overheads(self) -> np.ndarray:
        """Per-drive positioning time (seek + rotation, seconds)."""
        return self._spec_vector("access_overhead")

    @property
    def transfer_rates(self) -> np.ndarray:
        """Per-drive transfer rates (bytes/second)."""
        return self._spec_vector("transfer_rate")

    @property
    def active_power(self) -> np.ndarray:
        """Per-drive active power draw (W) — the placement power rank."""
        return self._spec_vector("active_power")

    def always_on_energy(self, duration: float) -> float:
        """Figure 5 normalization: all drives spinning idle for ``duration``."""
        if duration < 0:
            raise ConfigError("duration must be >= 0")
        if self.homogeneous_specs:
            return len(self.disks) * self.power_model.always_on_energy(duration)
        return float(
            sum(
                PowerModel(s).always_on_energy(duration) for s in self.specs
            )
        )

    def normalized_power_cost(self, duration: Optional[float] = None) -> float:
        """Energy so far as a fraction of the always-spinning baseline."""
        if duration is None:
            duration = self.env.now
        baseline = self.always_on_energy(duration)
        if baseline <= 0:
            return math.nan
        return self.total_energy() / baseline
