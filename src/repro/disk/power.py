"""Disk power states and energy accounting (the paper's Figure 1)."""

from __future__ import annotations

from enum import Enum
from typing import Dict, Mapping

from repro.disk.specs import DiskSpec

__all__ = ["DiskState", "PowerModel"]


class DiskState(Enum):
    """The power modes of Figure 1.

    ``SEEK`` and ``ACTIVE`` are both "serving" states (positioning vs
    transferring) with distinct power draws; ``SPINUP``/``SPINDOWN`` are the
    transitions between the spinning (``IDLE``) and spun-down (``STANDBY``)
    modes.
    """

    IDLE = "idle"
    STANDBY = "standby"
    SEEK = "seek"
    ACTIVE = "active"
    SPINUP = "spinup"
    SPINDOWN = "spindown"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality, and it runs in C: every timeline update
    # keys a dict by state, and Enum's own ``__hash__`` is Python-level.
    # Nothing iterates a set of states, so no output depends on the hash.
    __hash__ = object.__hash__

    @property
    def spinning(self) -> bool:
        """Whether the platters are (or are being brought) up to speed."""
        return self is not DiskState.STANDBY

    @property
    def serving(self) -> bool:
        """Whether the disk is actively working on a request."""
        return self in (DiskState.SEEK, DiskState.ACTIVE)


class PowerModel:
    """Maps :class:`DiskState` durations to energy for a given spec."""

    def __init__(self, spec: DiskSpec) -> None:
        self.spec = spec
        self._power: Dict[DiskState, float] = {
            DiskState.IDLE: spec.idle_power,
            DiskState.STANDBY: spec.standby_power,
            DiskState.SEEK: spec.seek_power,
            DiskState.ACTIVE: spec.active_power,
            DiskState.SPINUP: spec.spinup_power,
            DiskState.SPINDOWN: spec.spindown_power,
        }

    def power(self, state: DiskState) -> float:
        """Instantaneous draw (W) in ``state``."""
        return self._power[state]

    def power_table(self) -> Dict[DiskState, float]:
        """Copy of the full state -> watts mapping."""
        return dict(self._power)

    def energy(self, durations: Mapping[DiskState, float]) -> float:
        """Total energy (J) for the given per-state durations.

        Unknown states raise ``KeyError`` to surface accounting bugs.
        """
        return sum(self._power[state] * t for state, t in durations.items())

    def always_on_energy(self, duration: float, serving_fraction: float = 0.0) -> float:
        """Energy of a disk that never spins down over ``duration``.

        ``serving_fraction`` of the time is billed at active power; the
        rest at idle power.  With the default 0 this is the paper's
        Figure 5 normalization baseline ("spinning N disks without any
        power-saving mechanism").
        """
        busy = duration * serving_fraction
        return busy * self.spec.active_power + (duration - busy) * self.spec.idle_power
