"""Heterogeneous disk fleets: per-disk specs, ladders, and thresholds.

Every layer of the reproduction originally assumed the paper's
homogeneous array — one :class:`~repro.disk.specs.DiskSpec`, one scalar
capacity, one break-even threshold shared by all disks.  A
:class:`Fleet` lifts that assumption: it is a repeating *profile* of
:class:`FleetDisk` slots (spec + optional per-disk ladder/threshold)
that :meth:`Fleet.resolve` expands into a concrete per-disk
:class:`ResolvedFleet` for a given pool size.  ``StorageConfig(fleet=...)``
selects one by preset name or instance; without one, the config's
``spec`` resolves as :meth:`Fleet.uniform`.  Every run describes its
disks through one :class:`ResolvedFleet`, whatever the pool: a uniform
pool is vectors of identical entries, which the engines' arithmetic
treats bit for bit like the paper's scalar figures.

The ``mixed_generation`` preset pairs Table 2's Seagate with a
newer-generation green drive (:data:`~repro.disk.specs.WD10EADS`):
double the capacity, ~1/3 the idle draw, cheaper spin transitions and a
lower break-even — the asymmetry that spec-aware placement
(``cheapest_spinning``) and per-disk DPM control exist to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

from repro.disk.dpm import DpmLadder, dpm_ladder_names, make_dpm_ladder
from repro.disk.power import PowerModel
from repro.disk.specs import ST3500630AS, WD10EADS, DiskSpec
from repro.errors import ConfigError

__all__ = [
    "FLEETS",
    "Fleet",
    "FleetDisk",
    "ResolvedFleet",
    "fleet_names",
    "make_fleet",
]


@dataclass(frozen=True)
class FleetDisk:
    """One slot of a fleet profile.

    Attributes
    ----------
    spec:
        The drive model occupying this slot.
    ladder:
        Optional per-disk DPM ladder: a preset name from
        :data:`repro.disk.dpm.DPM_LADDERS` (resolved against *this*
        slot's spec) or a ready :class:`~repro.disk.dpm.DpmLadder`.
        ``None`` falls back to the config-wide ``dpm_ladder``.
    threshold:
        Optional per-disk idleness threshold (seconds).  ``None`` falls
        back to the config-wide ``idleness_threshold``, then to the
        slot's ladder entry / spec break-even.
    """

    spec: DiskSpec
    ladder: Union[None, str, DpmLadder] = None
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.spec, DiskSpec):
            raise ConfigError("FleetDisk.spec must be a DiskSpec")
        if isinstance(self.ladder, str) and self.ladder not in dpm_ladder_names():
            raise ConfigError(
                f"unknown DPM ladder {self.ladder!r}; "
                f"choose from {dpm_ladder_names()}"
            )
        if self.ladder is not None and not isinstance(
            self.ladder, (str, DpmLadder)
        ):
            raise ConfigError("FleetDisk.ladder must be a name or a DpmLadder")
        if self.threshold is not None:
            # Type first, so a string is a typed error rather than a
            # bare TypeError from the comparison.
            if isinstance(self.threshold, bool) or not isinstance(
                self.threshold, Real
            ):
                raise ConfigError(
                    f"FleetDisk.threshold must be a number, got "
                    f"{self.threshold!r}"
                )
            if not self.threshold >= 0:
                raise ConfigError("FleetDisk.threshold must be >= 0")


@dataclass(frozen=True)
class Fleet:
    """A named, repeating profile of per-disk slots.

    ``resolve(num_disks)`` tiles the profile across the pool
    (``disk d`` gets ``profile[d % len(profile)]``), so a two-slot
    profile yields an alternating old/new array at any pool size.
    """

    name: str
    profile: Tuple[FleetDisk, ...]

    def __post_init__(self) -> None:
        profile = tuple(self.profile)
        object.__setattr__(self, "profile", profile)
        if not profile:
            raise ConfigError("a fleet needs at least one disk slot")
        for slot in profile:
            if not isinstance(slot, FleetDisk):
                raise ConfigError("Fleet.profile must contain FleetDisk slots")

    @staticmethod
    def uniform(
        spec: DiskSpec,
        ladder: Union[None, str, DpmLadder] = None,
        threshold: Optional[float] = None,
        name: str = "uniform",
    ) -> "Fleet":
        """A homogeneous fleet (what bare ``StorageConfig(spec=...)`` means)."""
        return Fleet(
            name=name,
            profile=(FleetDisk(spec, ladder=ladder, threshold=threshold),),
        )

    def resolve(
        self,
        num_disks: int,
        default_ladder: Union[None, str, DpmLadder] = None,
        default_threshold: Optional[float] = None,
    ) -> "ResolvedFleet":
        """Expand the profile into per-disk specs/ladders/thresholds.

        Per-slot fields win over the config-wide defaults; a slot
        threshold falls back to ``default_threshold``, then the slot
        ladder's native first entry, then the slot spec's break-even.
        If *any* disk resolves to a ladder, ladderless disks get their
        spec's ``two_state`` ladder (bit-equal to the classic drive), so
        one machinery runs the whole pool.
        """
        if isinstance(num_disks, bool) or not isinstance(num_disks, Integral):
            raise ConfigError(
                f"num_disks must be an integer, got {num_disks!r}"
            )
        if num_disks < 1:
            raise ConfigError(f"num_disks must be >= 1, got {num_disks}")
        slots = [self.profile[d % len(self.profile)] for d in range(num_disks)]
        specs = [s.spec for s in slots]
        # Ladders are frozen, so every disk that names one preset on one
        # spec shares a single build.
        built: Dict[Tuple[str, DiskSpec], Optional[DpmLadder]] = {}

        def ladder(
            name: Union[None, str, DpmLadder], spec: DiskSpec
        ) -> Optional[DpmLadder]:
            if not isinstance(name, str):
                return make_dpm_ladder(name, spec)
            key = (name, spec)
            if key not in built:
                built[key] = make_dpm_ladder(name, spec)
            return built[key]

        ladders: List[Optional[DpmLadder]] = [
            ladder(s.ladder if s.ladder is not None else default_ladder, s.spec)
            for s in slots
        ]
        if any(l is not None for l in ladders) and any(
            l is None for l in ladders
        ):
            ladders = [
                l if l is not None else ladder("two_state", sp)
                for l, sp in zip(ladders, specs)
            ]
        thresholds: List[float] = []
        for slot, spec, lad in zip(slots, specs, ladders):
            if slot.threshold is not None:
                th = slot.threshold
            elif default_threshold is not None:
                th = default_threshold
            elif lad is not None:
                th = lad.base_threshold
            else:
                th = spec.breakeven_threshold()
            thresholds.append(float(th))
        return ResolvedFleet(specs, ladders, thresholds)


class ResolvedFleet:
    """Per-disk view of a fleet at a concrete pool size: the one
    description of the disks every run hands to the event array, the
    dispatcher, the DPM controller, the request scheduler and the fast
    kernel.

    ``specs``, ``ladders`` and ``thresholds`` hold one entry per disk,
    and the capacity, transfer-rate, access-overhead and spin-time
    properties are per-disk vectors over ``specs``.  ``ladders`` is
    either all-``None`` (classic two-state pool) or has a
    :class:`~repro.disk.dpm.DpmLadder` on every disk —
    :meth:`Fleet.resolve` guarantees the invariant.
    """

    def __init__(
        self,
        specs: Sequence[DiskSpec],
        ladders: Sequence[Optional[DpmLadder]],
        thresholds: Sequence[float],
    ) -> None:
        self.specs: Tuple[DiskSpec, ...] = tuple(specs)
        self.ladders: Tuple[Optional[DpmLadder], ...] = tuple(ladders)
        self.thresholds: npt.NDArray[np.float64] = np.asarray(
            thresholds, dtype=float
        )
        n = len(self.specs)
        if not (n == len(self.ladders) == self.thresholds.size):
            raise ConfigError("specs/ladders/thresholds lengths differ")
        with_ladder = sum(l is not None for l in self.ladders)
        if with_ladder not in (0, n):
            raise ConfigError(
                "a resolved fleet must give every disk a ladder or none"
            )
        self.num_disks = n
        self.has_ladders = with_ladder == n
        #: All disks share one spec (power/capacity vectors are constant).
        self.homogeneous_specs = len(set(self.specs)) == 1

    def _vec(self, attr: str) -> npt.NDArray[np.float64]:
        return np.array(
            [float(getattr(s, attr)) for s in self.specs], dtype=float
        )

    @property
    def capacities(self) -> npt.NDArray[np.float64]:
        return self._vec("capacity")

    @property
    def transfer_rates(self) -> npt.NDArray[np.float64]:
        return self._vec("transfer_rate")

    @property
    def access_overheads(self) -> npt.NDArray[np.float64]:
        return self._vec("access_overhead")

    @property
    def spinup_times(self) -> npt.NDArray[np.float64]:
        return self._vec("spinup_time")

    @property
    def spindown_times(self) -> npt.NDArray[np.float64]:
        return self._vec("spindown_time")

    def always_on_energy(self, duration: float) -> float:
        """Figure 5 baseline: every drive spinning idle for ``duration``."""
        if duration < 0:
            raise ConfigError("duration must be >= 0")
        if self.homogeneous_specs:
            return self.num_disks * PowerModel(self.specs[0]).always_on_energy(
                duration
            )
        return float(
            sum(
                PowerModel(s).always_on_energy(duration) for s in self.specs
            )
        )


#: Named fleet presets ``StorageConfig(fleet=...)`` accepts.  The
#: ``mixed_generation`` fleet alternates the paper's Seagate with the
#: newer green drive — per-disk capacities (500 GB vs 1 TB), idle draws
#: (9.3 W vs 2.8 W) and break-evens (53.3 s vs ~45.8 s) all differ.
FLEETS: Dict[str, Fleet] = {
    "mixed_generation": Fleet(
        name="mixed_generation",
        profile=(FleetDisk(ST3500630AS), FleetDisk(WD10EADS)),
    ),
}


def fleet_names() -> Tuple[str, ...]:
    """All registered fleet preset names."""
    return tuple(FLEETS)


def make_fleet(fleet: Union[None, str, Fleet]) -> Optional[Fleet]:
    """Resolve a preset name (or pass a ready fleet through); ``None``
    stays ``None`` (a config without a fleet resolves its ``spec`` as
    :meth:`Fleet.uniform`)."""
    if fleet is None or isinstance(fleet, Fleet):
        return fleet
    try:
        return FLEETS[fleet]
    except KeyError:
        raise ConfigError(
            f"unknown fleet {fleet!r}; choose from {fleet_names()}"
        ) from None
