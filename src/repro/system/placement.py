"""Pluggable write-placement policies (the paper's §1.1 rule and friends).

The paper fixes one write-allocation rule: best-fit among spinning disks,
worst-fit fallback among all disks with room.  That rule is exactly the
power/response lever the placement ablation sweeps, so it lives here as one
of several registered :class:`WritePlacementPolicy` strategies, selected
via ``StorageConfig(write_policy=...)`` and honored **identically** by both
simulation engines.

Each registered policy is one row of a single rule table,
:data:`PLACEMENT_RULES`, and the table has two evaluators: the event
kernel's :class:`~repro.system.dispatcher.Dispatcher` calls
:meth:`WritePlacementPolicy.choose`, which evaluates the row with NumPy,
and the fast kernel's compiled walk (``serve.c``) evaluates it in C against
the disk bank's live arrays.  Both read the same spin states, free bytes
and dispatched loads (accumulated in the same per-request order), so every
decision, float ties included, is byte-identical across engines;
:class:`RoundRobin`'s cursor stays in sync because placements happen in
stream order in both.  A subclass that overrides :meth:`choose` is outside
the table: it runs on the event engine only, and ``engine="fast"`` refuses
it with a :class:`~repro.errors.ConfigError`.

A row names the candidates (spinning disks with room, or all disks with
room), the key minimized or maximized among them, ties going to the lowest
disk id, and the fallback among all disks with room when no spinning disk
has room (worst-fit: most room; best-fit: least room).  ``load`` is the
cumulative dispatched service time, ``power`` the active power draw and
``cursor`` the cyclic distance from :class:`RoundRobin`'s cursor.

==================== ========== ======= ===== =========  ==================
name                 candidates key     dir   fallback   rule
==================== ========== ======= ===== =========  ==================
spinning_best_fit    spinning   free    min   worst_fit  paper §1.1
spinning_worst_fit   spinning   free    max   worst_fit  spread writes
first_fit_spinning   spinning   id      min   worst_fit  lowest id
fullest_spinning     spinning   free    min   best_fit   no worst-fit rule
round_robin          all        cursor  min   —          load spreading
coldest_disk         all        load    min   —          most idle disk
hottest_spinning     spinning   load    max   worst_fit  heat ledger
cheapest_spinning    spinning   power   min   worst_fit  mixed fleets
==================== ========== ======= ===== =========  ==================

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
    "PLACEMENT_RULES",
    "PlacementContext",
    "PlacementRule",
    "WritePlacementPolicy",
    "make_placement_policy",
    "placement_policy_names",
    "register_placement_policy",
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
        disk).  ``None`` when the caller does not provide it; no table
        row consults it.
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


@dataclass(frozen=True)
class PlacementRule:
    """One row of the rule table: ``candidates`` (``"spinning"`` or
    ``"all"``), ``key`` (``"free"``, ``"id"``, ``"load"``, ``"power"`` or
    ``"cursor"``), ``direction`` (``"min"`` or ``"max"``) and ``fallback``
    (``"worst_fit"``, ``"best_fit"`` or ``None``)."""

    candidates: str
    key: str
    direction: str
    fallback: Optional[str]


#: name -> rule, in registration order (the default first).
PLACEMENT_RULES: Dict[str, PlacementRule] = {
    "spinning_best_fit": PlacementRule("spinning", "free", "min", "worst_fit"),
    "spinning_worst_fit": PlacementRule("spinning", "free", "max", "worst_fit"),
    "first_fit_spinning": PlacementRule("spinning", "id", "min", "worst_fit"),
    "fullest_spinning": PlacementRule("spinning", "free", "min", "best_fit"),
    "round_robin": PlacementRule("all", "cursor", "min", None),
    "coldest_disk": PlacementRule("all", "load", "min", None),
    "hottest_spinning": PlacementRule("spinning", "load", "max", "worst_fit"),
    "cheapest_spinning": PlacementRule("spinning", "power", "min", "worst_fit"),
}


#: A spinning row's fallback among all disks with room, as a row itself.
_FALLBACKS = {
    "worst_fit": PlacementRule("all", "free", "max", None),
    "best_fit": PlacementRule("all", "free", "min", None),
}


def no_room(size: float) -> CapacityError:
    """The error both engines raise when no disk has room for a write."""
    return CapacityError(
        f"no disk has {size:.0f} free bytes for the written file"
    )


def _evaluate(
    rule: PlacementRule, policy, ctx: PlacementContext, size: float
) -> int:
    """The NumPy evaluator of one table row (``policy`` holds the
    round-robin cursor)."""
    free = ctx.free
    fits = free >= size
    spinning = rule.candidates == "spinning"
    candidates = (ctx.spinning & fits if spinning else fits).nonzero()[0]
    if not candidates.size:
        if not (spinning and rule.fallback):
            raise no_room(size)
        # No spinning disk has room: worst-fit (most room) or best-fit.
        return _evaluate(_FALLBACKS[rule.fallback], policy, ctx, size)
    if rule.key == "free":
        keys = free
    elif rule.key == "load":
        keys = np.asarray(ctx.load, dtype=float)
    elif rule.key == "power" and ctx.active_power is not None:
        keys = ctx.active_power
    elif rule.key == "cursor":
        keys = (np.arange(free.size) - policy._cursor) % free.size
    else:  # by id, or no power view
        return int(candidates[-1 if rule.direction == "max" else 0])
    ranked = keys[candidates]
    pick = ranked.argmax() if rule.direction == "max" else ranked.argmin()
    disk = int(candidates[pick])
    if rule.key == "cursor":
        policy._cursor = (disk + 1) % free.size
    return disk


class WritePlacementPolicy:
    """Base class: one placement decision per not-yet-mapped written file.

    Subclasses set ``name`` (the registry key).  A name with a row in
    :data:`PLACEMENT_RULES` is all a table policy needs: :meth:`choose`
    evaluates that row.  A policy outside the table overrides
    :meth:`choose` and runs on the event engine only.  :meth:`reset` is
    called once per simulation run with the pool size; stateful policies
    (e.g. :class:`RoundRobin`) initialize their cross-decision state there.
    """

    name: str = ""

    def reset(self, num_disks: int) -> None:
        """Prepare per-run state (default: stateless, nothing to do)."""

    def choose(self, ctx: PlacementContext, size: float) -> int:
        """Return the disk index for a ``size``-byte new file.

        Must raise :class:`~repro.errors.CapacityError` when no disk has
        room; must never return a disk with ``free < size``.
        """
        rule = PLACEMENT_RULES.get(self.name)
        if rule is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no rule-table row; override choose"
            )
        return _evaluate(rule, self, ctx, size)


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


def table_rule(policy: WritePlacementPolicy) -> Optional[PlacementRule]:
    """The table row ``policy`` runs, or ``None`` for a policy outside
    the table (one that is not exactly a registered table class)."""
    rule = PLACEMENT_RULES.get(policy.name)
    if rule is None or type(policy) is not PLACEMENT_POLICIES.get(policy.name):
        return None
    return rule


# -- the registered strategies (one per table row) ------------------------------


@register_placement_policy
class SpinningBestFit(WritePlacementPolicy):
    """Paper §1.1: best-fit among spinning, worst-fit standby fallback."""

    name = "spinning_best_fit"


@register_placement_policy
class SpinningWorstFit(WritePlacementPolicy):
    """Worst-fit among spinning disks (spread writes); worst-fit fallback."""

    name = "spinning_worst_fit"


@register_placement_policy
class FirstFitSpinning(WritePlacementPolicy):
    """Lowest-id spinning disk with room; worst-fit standby fallback."""

    name = "first_fit_spinning"


@register_placement_policy
class FullestSpinning(WritePlacementPolicy):
    """Best-fit among spinning *and* on fallback (no worst-fit rule).

    The spinning branch matches :class:`SpinningBestFit` exactly; only the
    all-disks-standby fallback differs (fullest feasible disk instead of
    emptiest), so sweeping the two isolates how much §1.1's worst-fit
    standby rule actually buys.
    """

    name = "fullest_spinning"


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


@register_placement_policy
class HottestSpinning(WritePlacementPolicy):
    """Popularity-aware §1.1 variant: pile writes onto the *hottest* spindle.

    "Hottest" = highest cumulative dispatched service time
    (:attr:`PlacementContext.load`) — the same observed per-disk heat the
    reorganizer estimates popularities from.  Concentrating new data where
    the traffic already is keeps the cold disks' idle gaps long (deeper
    spin-down residency than best-fit-by-space can achieve) at the cost of
    queueing on the hot disk.  Falls back to §1.1's worst-fit among
    standby disks so one unlucky spin-up absorbs future writes.
    """

    name = "hottest_spinning"


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
