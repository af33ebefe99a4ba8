"""Multi-state dynamic power management (the paper's §2 framework).

The related work the paper builds on (Irani, Singh, Shukla & Gupta's
survey) models a disk with ``n`` power states: state ``i`` draws
``power_i`` watts and charges a wake penalty ``beta_i`` (energy to return
to the serving state), with deeper states drawing less and costing more to
wake; the active/idle state has ``beta = 0``.  The classic *lower-envelope*
(balance) strategy moves to the state minimizing

.. math:: f_i(t) = \\beta_i + power_i \\cdot t

if the idle gap were to end exactly at ``t``; the switch times are the
crossing points of the ``f_i`` lines, and the strategy is **2-competitive**
against the clairvoyant optimum on every gap sequence — the bound the
paper quotes for the two-state case.  With Table 2's two states the single
crossing point is exactly the 53.3 s break-even threshold.

This module computes the schedule, per-gap energies and penalties, the
offline optimum, and expected power under Poisson gaps (closed form).

For *simulation*, the ladder is expressed as a :class:`DpmLadder` — the
analysis model plus explicit, non-abortable descent transitions (the
Figure 1 spin-down generalized per rung) — so that energy and timing can
be accounted exactly: parked time at each rung's power, descents at their
``down_power``, wakes billed at ``wake_power`` for the *configured* wake
time (no folded lump sums).  The ``two_state`` preset built from a
:class:`~repro.disk.specs.DiskSpec` is the paper's Figure 1 drive.
:class:`~repro.disk.drive.DiskDrive` runs every ladder inside the event
engine (a drive built without one runs ``two_state``) and
:mod:`repro.sim.fastkernel` runs the same semantics batched
(``StorageConfig(dpm_ladder=...)`` selects a preset by name).  Both
engines report a ladder-free run under the classic
:class:`~repro.disk.power.DiskState` names through
:data:`CLASSIC_STATES`, the one place that maps the two vocabularies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.disk.power import DiskState
from repro.disk.specs import DiskSpec
from repro.errors import ConfigError

__all__ = [
    "CLASSIC_STATES",
    "DPM_LADDERS",
    "DpmLadder",
    "DpmState",
    "LadderRung",
    "MultiStateDpmPolicy",
    "dpm_ladder_names",
    "make_dpm_ladder",
    "offline_optimal_gap_energy",
    "states_from_spec",
]


@dataclass(frozen=True)
class DpmState:
    """One rung of the power-state ladder.

    Attributes
    ----------
    name:
        Human-readable label.
    power:
        Draw while parked in this state (W).
    wake_energy:
        The penalty ``beta_i``: energy to return to service (J); 0 for the
        shallowest (idle) state.
    wake_time:
        Latency imposed on the request that wakes the disk (s).
    """

    name: str
    power: float
    wake_energy: float
    wake_time: float = 0.0

    def __post_init__(self) -> None:
        if self.power < 0 or self.wake_energy < 0 or self.wake_time < 0:
            raise ConfigError(f"state {self.name!r} has negative figures")

    def gap_cost(self, t: float) -> float:
        """``f_i(t) = beta_i + power_i * t`` — cost if the gap ends at t."""
        return self.wake_energy + self.power * t


def _validated_ladder(states: Sequence[DpmState]) -> List[DpmState]:
    states = list(states)
    if not states:
        raise ConfigError("at least one power state is required")
    if states[0].wake_energy != 0.0:
        raise ConfigError(
            "the first (shallowest) state must have wake_energy == 0"
        )
    for prev, nxt in zip(states, states[1:]):
        if not (nxt.power < prev.power):
            raise ConfigError(
                f"powers must strictly decrease down the ladder "
                f"({prev.name} -> {nxt.name})"
            )
        if not (nxt.wake_energy > prev.wake_energy):
            raise ConfigError(
                f"wake energies must strictly increase down the ladder "
                f"({prev.name} -> {nxt.name})"
            )
    return states


class MultiStateDpmPolicy:
    """The lower-envelope threshold schedule over a state ladder.

    Parameters
    ----------
    states:
        Shallow-to-deep ladder: strictly decreasing power, strictly
        increasing wake energy, first state with ``wake_energy = 0``.

    Notes
    -----
    Some states may never be entered (their line never forms part of the
    lower envelope); they are skipped automatically, exactly like the
    envelope construction in the competitive-analysis literature.
    """

    def __init__(self, states: Sequence[DpmState]) -> None:
        ladder = _validated_ladder(states)
        # Build the lower envelope greedily: from the current state, the
        # next state entered is the one whose line crosses lowest.
        schedule: List[Tuple[float, DpmState]] = [(0.0, ladder[0])]
        current = ladder[0]
        t = 0.0
        remaining = ladder[1:]
        while remaining:
            best = None
            best_t = math.inf
            for cand in remaining:
                # f_cand(t*) = f_current(t*)
                cross = (cand.wake_energy - current.wake_energy) / (
                    current.power - cand.power
                )
                if cross < best_t:
                    best_t = cross
                    best = cand
            if best is None or best_t <= t:
                # Degenerate crossing (dominated state); drop and continue.
                remaining = [s for s in remaining if s is not best]
                continue
            schedule.append((best_t, best))
            remaining = remaining[remaining.index(best) + 1 :]
            current = best
            t = best_t
        self.states = ladder
        #: ``(entry_time, state)`` pairs, entry times strictly increasing.
        self.schedule = schedule

    @classmethod
    def two_state(cls, spec: DiskSpec) -> "MultiStateDpmPolicy":
        """The paper's idle/standby ladder for a given disk spec."""
        return cls(states_from_spec(spec))

    def thresholds(self) -> List[float]:
        """Entry times of the non-initial states (the policy's thresholds)."""
        return [t for t, _ in self.schedule[1:]]

    def state_at(self, idle_time: float) -> DpmState:
        """The state the policy occupies ``idle_time`` into a gap."""
        if idle_time < 0:
            raise ConfigError("idle_time must be >= 0")
        current = self.schedule[0][1]
        for entry, state in self.schedule[1:]:
            if idle_time >= entry:
                current = state
            else:
                break
        return current

    def gap_energy(self, gap: float) -> float:
        """Online energy spent on one idle gap of length ``gap``.

        Residency energy along the schedule plus the wake penalty of the
        state occupied when the gap ends.
        """
        if gap < 0:
            raise ConfigError("gap must be >= 0")
        energy = 0.0
        for (entry, state), nxt in zip(
            self.schedule, self.schedule[1:] + [(math.inf, None)]
        ):
            start = min(gap, entry)
            end = min(gap, nxt[0])
            energy += state.power * (end - start)
            if end >= gap:
                break
        return energy + self.state_at(gap).wake_energy

    def wake_penalty(self, gap: float) -> float:
        """Latency charged to the request arriving after ``gap`` seconds."""
        return self.state_at(gap).wake_time

    def expected_gap_energy(self, rate: float) -> float:
        """``E[gap_energy(X)]`` for ``X ~ Exp(rate)`` (closed form)."""
        if rate <= 0:
            raise ConfigError("rate must be positive")
        lam = rate
        total = 0.0
        pairs = self.schedule + [(math.inf, None)]
        for (entry, state), (nxt_entry, _) in zip(pairs, pairs[1:]):
            # Residency: E[min(X, nxt) - min(X, entry)].
            hi = 0.0 if math.isinf(nxt_entry) else math.exp(-lam * nxt_entry)
            lo = math.exp(-lam * entry)
            total += state.power * (lo - hi) / lam
            # Wake penalty charged if the gap ends inside this segment.
            total += state.wake_energy * (lo - hi)
        return total

    def sequence_energy(self, gaps: Iterable[float]) -> float:
        """Total online energy over a recorded gap sequence."""
        return sum(self.gap_energy(g) for g in gaps)


def offline_optimal_gap_energy(
    states: Sequence[DpmState], gap: float
) -> float:
    """Clairvoyant optimum for one gap: park in the single best state."""
    if gap < 0:
        raise ConfigError("gap must be >= 0")
    return min(state.gap_cost(gap) for state in _validated_ladder(states))


def states_from_spec(spec: DiskSpec) -> List[DpmState]:
    """Table 2's disk as a two-state ladder.

    The standby wake energy folds the full spin-down + spin-up cycle
    (charged once per visit, as in the break-even derivation); the wake
    latency is the spin-up time.
    """
    return [
        DpmState("idle", spec.idle_power, 0.0, 0.0),
        DpmState(
            "standby",
            spec.standby_power,
            spec.transition_energy,
            spec.spinup_time,
        ),
    ]


# -- simulation ladders ----------------------------------------------------------


@dataclass(frozen=True)
class LadderRung:
    """One rung of a *simulation* ladder (explicit transitions).

    Attributes
    ----------
    name:
        Timeline label for the parked state (must be unique per ladder).
    power:
        Draw while parked (W).
    entry:
        Seconds of idleness at which the (non-abortable) descent *into*
        this rung begins; 0 for the shallowest rung.
    down_time / down_power:
        Duration (s) and draw (W) of the descent transition — the
        Figure 1 spin-down, generalized per rung.  A request arriving
        mid-descent waits for it to finish before the wake starts.
    wake_time / wake_power:
        Duration (s) and draw (W) of the wake transition charged to the
        request that ends an idle gap while the disk is in (or
        descending into) this rung.
    """

    name: str
    power: float
    entry: float = 0.0
    down_time: float = 0.0
    down_power: float = 0.0
    wake_time: float = 0.0
    wake_power: float = 0.0

    def __post_init__(self) -> None:
        for field in ("power", "entry", "down_time", "down_power",
                      "wake_time", "wake_power"):
            if getattr(self, field) < 0:
                raise ConfigError(
                    f"rung {self.name!r}: {field} must be >= 0"
                )
        if not self.name or self.name.startswith(("down:", "wake:")):
            raise ConfigError(
                "rung names must be non-empty and not use the reserved "
                "'down:'/'wake:' prefixes"
            )
        if self.name in ("seek", "active"):
            raise ConfigError(
                f"rung name {self.name!r} collides with a serving state"
            )


@dataclass(frozen=True)
class DpmLadder:
    """A validated shallow-to-deep simulation ladder.

    Rung 0 is the serving/idle rung (``entry = down_time = wake_time =
    0``); deeper rungs draw strictly less power and are entered after
    strictly longer idleness.  Descents must fit between entries
    (``entry[i] >= entry[i-1] + down_time[i-1]``) so a disk never starts
    a descent before finishing the previous one.

    The online threshold control loop (:mod:`repro.control`) steers a
    ladder through one scalar per disk — the first-descent threshold.
    :meth:`scaled_entries` maps that scalar onto per-rung descent times
    by scaling every entry proportionally (``sigma = threshold /
    base_threshold``), cascading descents forward where the scaled
    entries would overlap a still-running transition.  With the
    ``two_state`` preset this degenerates to exactly the classic
    single-threshold drive.
    """

    name: str
    rungs: Tuple[LadderRung, ...]

    def __post_init__(self) -> None:
        rungs = tuple(self.rungs)
        object.__setattr__(self, "rungs", rungs)
        if not rungs:
            raise ConfigError("a ladder needs at least one rung")
        first = rungs[0]
        if first.entry != 0.0 or first.down_time != 0.0 or first.wake_time != 0.0:
            raise ConfigError(
                "rung 0 must have entry == down_time == wake_time == 0"
            )
        names = [r.name for r in rungs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate rung names in ladder {self.name!r}")
        for prev, nxt in zip(rungs, rungs[1:]):
            if not nxt.power < prev.power:
                raise ConfigError(
                    f"powers must strictly decrease down the ladder "
                    f"({prev.name} -> {nxt.name})"
                )
            if not nxt.entry > prev.entry:
                raise ConfigError(
                    f"entry times must strictly increase down the ladder "
                    f"({prev.name} -> {nxt.name})"
                )
            if not math.isfinite(nxt.entry):
                raise ConfigError("entry times must be finite")
            if nxt.entry < prev.entry + prev.down_time:
                raise ConfigError(
                    f"descent into {nxt.name!r} starts before the descent "
                    f"into {prev.name!r} finishes"
                )

    @property
    def base_threshold(self) -> float:
        """The first-descent threshold (``inf`` for a descent-free ladder)."""
        if len(self.rungs) < 2:
            return math.inf
        return self.rungs[1].entry

    @property
    def entries(self) -> Tuple[float, ...]:
        """Native per-rung descent-start times (``entries[0] == 0``)."""
        return tuple(r.entry for r in self.rungs)

    def scaled_entries(self, threshold: float) -> Tuple[float, ...]:
        """Effective descent-start times under a controlled threshold.

        ``threshold`` replaces the first rung's entry exactly (so the
        classic single-threshold semantics are preserved bit for bit when
        ``threshold == base_threshold``); deeper entries scale by
        ``threshold / base_threshold`` and are pushed forward where a
        scaled entry would land inside the previous rung's descent.
        ``inf`` disables descent entirely; ``0`` cascades straight down.
        """
        th = float(threshold)
        if not th >= 0:
            raise ConfigError("threshold must be >= 0")
        rungs = self.rungs
        if len(rungs) < 2:
            return (0.0,)
        if th == rungs[1].entry:
            return self.entries
        if math.isinf(th):
            return (0.0,) + (math.inf,) * (len(rungs) - 1)
        sigma = th / rungs[1].entry
        out = [0.0, th]
        prev = th
        for i in range(2, len(rungs)):
            start = sigma * rungs[i].entry
            floor = prev + rungs[i - 1].down_time
            if start < floor:
                start = floor
            out.append(start)
            prev = start
        return tuple(out)

    def scaled_entries_array(self, thresholds: Sequence[float]) -> np.ndarray:
        """:meth:`scaled_entries` of every threshold at once, as the rows
        of an ``(n, len(rungs))`` array: the same arithmetic elementwise,
        so each row is bit for bit that tuple (a one-rung ladder's rows
        are ``(0.0,)``).  Its two shortcuts need no branch here: at
        ``base_threshold`` sigma is 1 and the ladder's own validation
        keeps every entry at or past its cascade floor, and an ``inf``
        threshold scales every entry to ``inf``.  Raises
        :class:`ConfigError` when any threshold is negative or NaN."""
        th = np.asarray(thresholds, dtype=float)
        if not (th >= 0).all():
            raise ConfigError("threshold must be >= 0")
        rungs = self.rungs
        out = np.zeros((th.size, len(rungs)))
        if len(rungs) < 2:
            return out
        out[:, 1] = th
        # Huge finite thresholds may scale to inf entries.
        with np.errstate(over="ignore"):
            sigma = th / rungs[1].entry
            prev = th
            for i in range(2, len(rungs)):
                start = sigma * rungs[i].entry
                floor = prev + rungs[i - 1].down_time
                prev = out[:, i] = np.where(start < floor, floor, start)
        return out

    def power_table(self, spec: DiskSpec) -> Dict[str, float]:
        """Timeline label -> watts for every state a ladder run can enter."""
        table: Dict[str, float] = {}
        for rung in self.rungs:
            table[rung.name] = rung.power
            table[f"down:{rung.name}"] = rung.down_power
            table[f"wake:{rung.name}"] = rung.wake_power
        table["seek"] = spec.seek_power
        table["active"] = spec.active_power
        return table

    @classmethod
    def from_policy(
        cls, policy: MultiStateDpmPolicy, spec: DiskSpec,
        name: str = "custom",
    ) -> "DpmLadder":
        """Express an analysis-side envelope schedule as a simulation ladder.

        Each scheduled state's wake penalty ``beta`` is split into an
        explicit wake transition (``wake_time`` at spin-up power) plus a
        descent transition billing the residue at spin-down power —
        ``beta = down_time * P_down + wake_time * P_up`` — so the
        simulated energy per visited rung equals the analysis model's
        ``beta`` while standby residency is counted from the descent's
        *end* (the physically conserving convention; the analysis closed
        forms count it from the threshold instant).  For
        :meth:`MultiStateDpmPolicy.two_state` this recovers exactly the
        classic drive's spin-down/spin-up cycle.  Descents too long to
        fit before the next scheduled entry are clamped to the gap.
        """
        schedule = policy.schedule
        rungs = [LadderRung(schedule[0][1].name, schedule[0][1].power)]
        for i, (entry, state) in enumerate(schedule[1:], start=1):
            wake_covered = spec.spinup_power * state.wake_time
            residue = max(0.0, state.wake_energy - wake_covered)
            down_time = (
                residue / spec.spindown_power if spec.spindown_power > 0
                else 0.0
            )
            next_entry = (
                schedule[i + 1][0] if i + 1 < len(schedule) else math.inf
            )
            down_time = min(down_time, next_entry - entry)
            rungs.append(
                LadderRung(
                    name=state.name,
                    power=state.power,
                    entry=entry,
                    down_time=down_time,
                    down_power=spec.spindown_power,
                    wake_time=state.wake_time,
                    wake_power=spec.spinup_power,
                )
            )
        return cls(name=name, rungs=tuple(rungs))


def _entries_from_transitions(
    powers: Sequence[float],
    betas: Sequence[float],
) -> List[float]:
    """Lower-envelope entry times: rung ``i`` is entered where its cost line
    ``f_i(t) = beta_i + p_i * t`` crosses below rung ``i-1``'s, i.e. at
    ``(b_i - b_{i-1}) / (p_{i-1} - p_i)`` (the same crossing the analysis
    schedule computes)."""
    entries = [0.0]
    for i in range(1, len(powers)):
        entries.append(
            (betas[i] - betas[i - 1]) / (powers[i - 1] - powers[i])
        )
    return entries


def _two_state_ladder(spec: DiskSpec) -> DpmLadder:
    """The paper's Figure 1 drive as a ladder (classic, bit for bit)."""
    return DpmLadder(
        name="two_state",
        rungs=(
            LadderRung("idle", spec.idle_power),
            LadderRung(
                "standby",
                spec.standby_power,
                entry=spec.breakeven_threshold(),
                down_time=spec.spindown_time,
                down_power=spec.spindown_power,
                wake_time=spec.spinup_time,
                wake_power=spec.spinup_power,
            ),
        ),
    )


def _interpolated_ladder(
    spec: DiskSpec,
    name: str,
    levels: Sequence[Tuple[str, float, float, float]],
) -> DpmLadder:
    """Build a ladder from ``(name, power_fraction, down_frac, wake_frac)``
    intermediate levels between idle (fraction 1) and standby (fraction 0).

    Rung powers sit at ``standby + fraction * (idle - standby)``; descent
    and wake transitions are the given fractions of the spec's spin-down/
    spin-up; entries are the lower-envelope crossings of the resulting
    ``beta_i = down_i * P_down + wake_i * P_up`` lines, so each rung is
    entered exactly when it becomes the cheapest place to wait.
    """
    span = spec.idle_power - spec.standby_power
    names = ["idle"] + [lv[0] for lv in levels] + ["standby"]
    powers = (
        [spec.idle_power]
        + [spec.standby_power + lv[1] * span for lv in levels]
        + [spec.standby_power]
    )
    downs = [0.0] + [lv[2] * spec.spindown_time for lv in levels] + [
        spec.spindown_time
    ]
    wakes = [0.0] + [lv[3] * spec.spinup_time for lv in levels] + [
        spec.spinup_time
    ]
    betas = [
        d * spec.spindown_power + w * spec.spinup_power
        for d, w in zip(downs, wakes)
    ]
    entries = _entries_from_transitions(powers, betas)
    rungs = [
        LadderRung(
            name=n,
            power=p,
            entry=e,
            down_time=d,
            down_power=spec.spindown_power if i else 0.0,
            wake_time=w,
            wake_power=spec.spinup_power if i else 0.0,
        )
        for i, (n, p, e, d, w) in enumerate(
            zip(names, powers, entries, downs, wakes)
        )
    ]
    return DpmLadder(name=name, rungs=tuple(rungs))


def _nap_ladder(spec: DiskSpec) -> DpmLadder:
    """Idle / low-RPM nap / standby — the three-state DRPM-style ladder."""
    return _interpolated_ladder(spec, "nap", [("nap", 0.40, 0.25, 0.20)])


def _drpm4_ladder(spec: DiskSpec) -> DpmLadder:
    """Four DRPM speed levels: idle, two reduced-RPM rungs, standby."""
    return _interpolated_ladder(
        spec,
        "drpm4",
        [("rpm_hi", 0.55, 0.15, 0.15), ("rpm_lo", 0.25, 0.30, 0.40)],
    )


#: Timeline labels of the ``two_state`` ladder -> the classic drive's
#: states, under which runs without a ladder report their residencies,
#: transition histories and observer spans (in both engines).
CLASSIC_STATES: Dict[str, DiskState] = {
    "idle": DiskState.IDLE,
    "standby": DiskState.STANDBY,
    "seek": DiskState.SEEK,
    "active": DiskState.ACTIVE,
    "wake:standby": DiskState.SPINUP,
    "down:standby": DiskState.SPINDOWN,
}


#: name -> builder(spec); the presets ``StorageConfig(dpm_ladder=...)``
#: accepts by name.  ``two_state`` is the classic Figure 1 drive.
DPM_LADDERS: Dict[str, Callable[[DiskSpec], DpmLadder]] = {
    "two_state": _two_state_ladder,
    "nap": _nap_ladder,
    "drpm4": _drpm4_ladder,
}


def dpm_ladder_names() -> Tuple[str, ...]:
    """All registered ladder preset names."""
    return tuple(DPM_LADDERS)


def make_dpm_ladder(
    ladder: Union[None, str, DpmLadder], spec: DiskSpec
) -> Optional[DpmLadder]:
    """Resolve a preset name (or pass a ready ladder through); ``None`` stays
    ``None`` (the classic two-state code path, no ladder machinery)."""
    if ladder is None or isinstance(ladder, DpmLadder):
        return ladder
    try:
        builder = DPM_LADDERS[ladder]
    except KeyError:
        raise ConfigError(
            f"unknown DPM ladder {ladder!r}; choose from {dpm_ladder_names()}"
        ) from None
    return builder(spec)
