"""An array of simulated drives (uniform or mixed) with aggregate accounting."""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.disk.drive import DiskDrive, DiskRequest
from repro.disk.fleet import ResolvedFleet
from repro.disk.power import DiskState
from repro.sim.environment import Environment

__all__ = ["DiskArray"]


class DiskArray:
    """The drives of one :class:`~repro.disk.fleet.ResolvedFleet`,
    sharing one environment.

    Each drive is built from *its own* slot of ``fleet`` (spec, ladder
    and idleness threshold), so a mixed-generation pool simulates every
    drive against its own power figures and break-even; a uniform pool
    is the same drive ``fleet.num_disks`` times.  Per-disk spec vectors
    (capacities, rates, overheads) are read from ``array.fleet``.

    Parameters
    ----------
    env:
        The environment every drive runs in.
    fleet:
        The pool: per-disk specs, ladders (``None``: the classic
        two-state drive) and thresholds.
    record_history:
        As for :class:`~repro.disk.drive.DiskDrive`.
    """

    def __init__(
        self,
        env: Environment,
        fleet: ResolvedFleet,
        record_history: bool = False,
    ) -> None:
        self.env = env
        self.fleet = fleet
        self.disks: List[DiskDrive] = [
            DiskDrive(
                env,
                spec,
                disk_id=i,
                idleness_threshold=threshold,
                record_history=record_history,
                ladder=ladder,
            )
            for i, (spec, ladder, threshold) in enumerate(
                zip(fleet.specs, fleet.ladders, fleet.thresholds.tolist())
            )
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

    def normalized_power_cost(self, duration: Optional[float] = None) -> float:
        """Energy so far as a fraction of the always-spinning baseline."""
        if duration is None:
            duration = self.env.now
        baseline = self.fleet.always_on_energy(duration)
        if baseline <= 0:
            return math.nan
        return self.total_energy() / baseline
