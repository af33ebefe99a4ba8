"""Pluggable write-placement policies (the paper's §1.1 rule and friends).

The paper fixes one write-allocation rule: best-fit among spinning disks,
worst-fit fallback among all disks with room.  That rule is exactly the
power/response lever the placement ablation sweeps, so it lives here as one
of several registered :class:`WritePlacementPolicy` strategies, selected
via ``StorageConfig(write_policy=...)`` and honored **identically** by both
simulation engines:

* the event kernel's :class:`~repro.system.dispatcher.Dispatcher` calls the
  policy from ``_allocate_for_write``;
* the fast kernel (:mod:`repro.sim.fastkernel`) calls the same policy
  instance at its write-allocation coupling points.

Both engines hand the policy an identical :class:`PlacementContext` — the
per-disk spin mask, free bytes and cumulative dispatched service seconds
are maintained with the same per-request accumulation order on both sides,
so every policy's decisions (including float-tie argmins) are
byte-identical across engines.  Policies carrying state across decisions
(:class:`RoundRobin`'s cursor) stay in sync because allocation decisions
happen in stream order in both engines.

Registered policies
-------------------

==================== ========================================================
name                 rule (ties break toward the lowest disk id)
==================== ========================================================
spinning_best_fit    paper §1.1: best-fit (tightest room) among spinning
                     disks; worst-fit fallback among all disks with room
spinning_worst_fit   worst-fit (most room) among spinning disks; worst-fit
                     fallback — spreads writes over the loaded disks
first_fit_spinning   lowest-id spinning disk with room; worst-fit fallback
fullest_spinning     best-fit among spinning *and* best-fit fallback —
                     isolates the effect of §1.1's worst-fit standby rule
round_robin          cyclic cursor over all disks with room, spin-oblivious
                     (the classic load-spreading, spin-up-heavy baseline)
coldest_disk         the most-idle disk with room (least cumulative
                     dispatched service time), spin-oblivious
hottest_spinning     popularity-aware: the busiest spinning disk with room
                     (highest cumulative dispatched service time — the
                     observed heat ledger); worst-fit standby fallback
cheapest_spinning    spec-aware (heterogeneous fleets): the lowest
                     active-power spinning disk with room; worst-fit
                     standby fallback — steers new data onto the
                     efficient generation of a mixed fleet
==================== ========================================================

Use :func:`make_placement_policy` to instantiate by name and
:func:`placement_policy_names` to iterate the registry (tests do, so new
policies are covered by the cross-engine equivalence grid automatically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.errors import CapacityError, ConfigError

__all__ = [
    "DEFAULT_WRITE_POLICY",
    "PlacementContext",
    "WritePlacementPolicy",
    "make_placement_policy",
    "placement_policy_names",
    "register_placement_policy",
    "spinning_best_fit_choice",
]

#: The paper's §1.1 rule; what ``StorageConfig.write_policy`` defaults to.
DEFAULT_WRITE_POLICY = "spinning_best_fit"


@dataclass
class PlacementContext:
    """Everything a policy may consult when placing one write.

    Attributes
    ----------
    time:
        Simulation time of the allocation decision.
    spinning:
        Per-disk bool mask: ``True`` unless the disk is in STANDBY
        (SEEK/ACTIVE/IDLE/SPINUP/SPINDOWN all count as spinning, matching
        :attr:`repro.disk.power.DiskState.spinning`).
    free:
        Per-disk free bytes under the current mapping.
    load:
        Per-disk cumulative *dispatched* service seconds (access overhead +
        transfer time of every request routed to the disk so far, cache
        hits excluded), as a per-disk float sequence (a list or an array:
        policies that read it convert it themselves).  Both engines
        accumulate this in the same per-request order, so comparisons are
        exact across engines.
    capacity:
        Per-disk usable byte budget (heterogeneous fleets differ per
        disk).  ``None`` when the caller predates the fleet refactor;
        spec-blind policies never consult it.
    active_power:
        Per-disk active power draw (W) from the fleet's specs — the
        power-rank view spec-aware policies (``cheapest_spinning``) place
        by.  ``None`` when unavailable.
    """

    time: float
    spinning: np.ndarray
    free: np.ndarray
    load: Sequence[float]
    capacity: Optional[np.ndarray] = None
    active_power: Optional[np.ndarray] = None


def _no_room(size: float) -> CapacityError:
    return CapacityError(
        f"no disk has {size:.0f} free bytes for the written file"
    )


def _worst_fit(free: np.ndarray, size: float) -> int:
    """Most free space among disks with room (§1.1's standby fallback)."""
    feasible = (free >= size).nonzero()[0]
    if feasible.size == 0:
        raise _no_room(size)
    return int(feasible[free[feasible].argmax()])


def _best_fit(free: np.ndarray, size: float) -> int:
    """Tightest remaining space among disks with room."""
    feasible = (free >= size).nonzero()[0]
    if feasible.size == 0:
        raise _no_room(size)
    return int(feasible[free[feasible].argmin()])


class WritePlacementPolicy:
    """Base class: one placement decision per not-yet-mapped written file.

    Subclasses set ``name`` (the registry key) and implement
    :meth:`choose`.  :meth:`reset` is called once per simulation run with
    the pool size; stateful policies (e.g. :class:`RoundRobin`) initialize
    their cross-decision state there.
    """

    name: str = ""

    def reset(self, num_disks: int) -> None:
        """Prepare per-run state (default: stateless, nothing to do)."""

    def choose(self, ctx: PlacementContext, size: float) -> int:
        """Return the disk index for a ``size``-byte new file.

        Must raise :class:`~repro.errors.CapacityError` when no disk has
        room; must never return a disk with ``free < size``.
        """
        raise NotImplementedError


#: name -> policy class.  Populated by :func:`register_placement_policy`.
PLACEMENT_POLICIES: Dict[str, Type[WritePlacementPolicy]] = {}


def register_placement_policy(
    cls: Type[WritePlacementPolicy],
) -> Type[WritePlacementPolicy]:
    """Class decorator adding a policy to the registry (keyed by ``name``)."""
    if not cls.name:
        raise ConfigError(f"{cls.__name__} must set a non-empty name")
    if cls.name in PLACEMENT_POLICIES:
        raise ConfigError(f"duplicate placement policy {cls.name!r}")
    PLACEMENT_POLICIES[cls.name] = cls
    return cls


def placement_policy_names() -> Tuple[str, ...]:
    """All registered policy names (registration order; default first)."""
    return tuple(PLACEMENT_POLICIES)


def make_placement_policy(
    policy: Union[str, WritePlacementPolicy, None] = None,
) -> WritePlacementPolicy:
    """Instantiate a policy by registry name (``None`` = the §1.1 default).

    A ready-made :class:`WritePlacementPolicy` instance passes through
    unchanged (callers own its lifecycle; remember one instance must not be
    shared between concurrently running simulations if it is stateful).
    """
    if policy is None:
        policy = DEFAULT_WRITE_POLICY
    if isinstance(policy, WritePlacementPolicy):
        return policy
    try:
        cls = PLACEMENT_POLICIES[policy]
    except KeyError:
        raise ConfigError(
            f"unknown write placement policy {policy!r}; choose from "
            f"{placement_policy_names()}"
        ) from None
    return cls()


# -- the registered strategies --------------------------------------------------


def spinning_best_fit_choice(
    spinning: np.ndarray, free: np.ndarray, size: float
) -> int:
    """The paper §1.1 decision as a plain function (shared compat shim).

    Best-fit among spinning disks with room; otherwise worst-fit among all
    disks with room, so one unlucky spin-up absorbs as many future writes
    as possible.  Ties break toward the lowest disk id in both branches.
    """
    candidates = (spinning & (free >= size)).nonzero()[0]
    if candidates.size:
        return int(candidates[free[candidates].argmin()])
    return _worst_fit(free, size)


@register_placement_policy
class SpinningBestFit(WritePlacementPolicy):
    """Paper §1.1: best-fit among spinning, worst-fit standby fallback."""

    name = "spinning_best_fit"

    def choose(self, ctx: PlacementContext, size: float) -> int:
        return spinning_best_fit_choice(ctx.spinning, ctx.free, size)


@register_placement_policy
class SpinningWorstFit(WritePlacementPolicy):
    """Worst-fit among spinning disks (spread writes); worst-fit fallback."""

    name = "spinning_worst_fit"

    def choose(self, ctx: PlacementContext, size: float) -> int:
        free = ctx.free
        candidates = (ctx.spinning & (free >= size)).nonzero()[0]
        if candidates.size:
            return int(candidates[free[candidates].argmax()])
        return _worst_fit(free, size)


@register_placement_policy
class FirstFitSpinning(WritePlacementPolicy):
    """Lowest-id spinning disk with room; worst-fit standby fallback."""

    name = "first_fit_spinning"

    def choose(self, ctx: PlacementContext, size: float) -> int:
        candidates = (ctx.spinning & (ctx.free >= size)).nonzero()[0]
        if candidates.size:
            return int(candidates[0])
        return _worst_fit(ctx.free, size)


@register_placement_policy
class FullestSpinning(WritePlacementPolicy):
    """Best-fit among spinning *and* on fallback (no worst-fit rule).

    The spinning branch matches :class:`SpinningBestFit` exactly; only the
    all-disks-standby fallback differs (fullest feasible disk instead of
    emptiest), so sweeping the two isolates how much §1.1's worst-fit
    standby rule actually buys.
    """

    name = "fullest_spinning"

    def choose(self, ctx: PlacementContext, size: float) -> int:
        free = ctx.free
        candidates = (ctx.spinning & (free >= size)).nonzero()[0]
        if candidates.size:
            return int(candidates[free[candidates].argmin()])
        return _best_fit(free, size)


@register_placement_policy
class RoundRobin(WritePlacementPolicy):
    """Cyclic cursor over all disks with room, ignoring spin state.

    The classic load-spreading baseline: maximally even placement at the
    cost of waking standby disks.  The cursor advances past the chosen
    disk; infeasible disks are skipped without consuming the turn.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self, num_disks: int) -> None:
        self._cursor = 0

    def choose(self, ctx: PlacementContext, size: float) -> int:
        n = int(ctx.free.shape[0])
        order = (np.arange(n) + self._cursor) % n
        feasible = ctx.free[order] >= size
        if not feasible.any():
            raise _no_room(size)
        disk = int(order[feasible.argmax()])
        self._cursor = (disk + 1) % n
        return disk


@register_placement_policy
class ColdestDisk(WritePlacementPolicy):
    """The most-idle disk with room, ignoring spin state.

    "Coldest" = least cumulative dispatched service time
    (:attr:`PlacementContext.load`), i.e. the disk that has been the most
    idle over the run so far.  Spreads new data away from the hot spindles
    — the anti-§1.1 strategy that trades spin-up energy for queueing
    headroom.
    """

    name = "coldest_disk"

    def choose(self, ctx: PlacementContext, size: float) -> int:
        feasible = (ctx.free >= size).nonzero()[0]
        if feasible.size == 0:
            raise _no_room(size)
        load = np.asarray(ctx.load, dtype=float)
        return int(feasible[load[feasible].argmin()])


@register_placement_policy
class HottestSpinning(WritePlacementPolicy):
    """Popularity-aware §1.1 variant: pile writes onto the *hottest* spindle.

    "Hottest" = highest cumulative dispatched service time
    (:attr:`PlacementContext.load`) — the same observed per-disk heat the
    reorganizer estimates popularities from, already carried by both
    engines' placement contexts.  Concentrating new data where the traffic
    already is keeps the cold disks' idle gaps long (deeper spin-down
    residency than best-fit-by-space can achieve) at the cost of queueing
    on the hot disk.  Falls back to §1.1's worst-fit among standby disks
    so one unlucky spin-up absorbs future writes.  Ties break toward the
    lowest disk id.
    """

    name = "hottest_spinning"

    def choose(self, ctx: PlacementContext, size: float) -> int:
        candidates = (ctx.spinning & (ctx.free >= size)).nonzero()[0]
        if candidates.size:
            load = np.asarray(ctx.load, dtype=float)
            return int(candidates[load[candidates].argmax()])
        return _worst_fit(ctx.free, size)


@register_placement_policy
class CheapestSpinning(WritePlacementPolicy):
    """Spec-aware §1.1 variant: the cheapest-to-run spinning disk wins.

    Among spinning disks with room, place on the one with the lowest
    *active power* draw (:attr:`PlacementContext.active_power`) — on a
    mixed-generation fleet that routes new data onto the efficient
    drives, letting the power-hungry generation stay idle long enough to
    spin down.  Ties (uniform fleets: every draw equal) break toward the
    lowest disk id, and without a power view the policy degrades to
    first-fit among spinning.  Falls back to §1.1's worst-fit among
    standby disks so one unlucky spin-up absorbs future writes.
    """

    name = "cheapest_spinning"

    def choose(self, ctx: PlacementContext, size: float) -> int:
        candidates = (ctx.spinning & (ctx.free >= size)).nonzero()[0]
        if candidates.size:
            if ctx.active_power is None:
                return int(candidates[0])
            return int(candidates[ctx.active_power[candidates].argmin()])
        return _worst_fit(ctx.free, size)
