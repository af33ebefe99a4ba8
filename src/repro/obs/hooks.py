"""The ``RunObserver`` hook protocol: simulated-time run observability.

Both engines thread a single observer object through
:meth:`repro.system.storage.StorageSystem.run` and report what the
simulated system *did* — disk power-state spans (including ladder rung
dwells), cache hits/misses/admissions/evictions, online-controller
threshold decisions, and write-placement choices.  Every timestamp an
observer receives is **simulated seconds** (the event-loop clock /
kernel arrival clock), never wall-clock; orchestrator-layer wall-clock
profiling lives in ``repro.experiments.orchestrator`` instead (rule
R004 keeps the two from mixing, and rule R007 keeps sim-tree
observability on this protocol).

Observation is strictly passive: engines only *append* to an observer,
so an instrumented run is bit-identical to an uninstrumented one.  The
differential harness enforces this across the random config space
(``tests/differential/test_differential.py::test_observer_runs_bit_identical``).

Granularity differs by engine, results do not: the event engine emits
the full per-request drive timeline (seek/active spans included), while
the fast kernel emits power-state *transitions* (spin-downs, spin-ups,
standby dwells, ladder rung changes) recovered from its span logs at
batch boundaries — per-request service spans would defeat its batching.

On the event engine each hook's own events arrive in simulation order;
the order in which *different* hooks fire relative to each other is not
part of the contract on either engine.  The fast kernel hands over state
spans per chunk (and once more at the end of the run, with the trailing
idle descents), grouped by (rung, kind); within a group they are in the
arrival order of the requests that closed them, not interleaved across
disks in simulated time.  Placements, threshold pushes and cache events
arrive in simulation order.  The event engine calls :meth:`RunObserver.on_cache_event`
once per event; the fast kernel's compiled cache walk records a batch's
cache events as columns and hands them over as one
:class:`CacheEventBlock` in one :meth:`RunObserver.on_cache_events` call
per batch (chunk, control interval or release batch, plus one for the
admissions drained at the horizon), after that batch's placements.  A
block iterates as the same ``(time, kind, file_id)`` tuples, so an
observer that only implements ``on_cache_event`` sees the same sequence.

Hot paths stay allocation-free by normalizing observers up front with
:func:`active_observer`: a disabled (or absent) observer becomes
``None`` and the kernels take their original, untouched branches.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CacheEventBlock",
    "RunObserver",
    "NullObserver",
    "NULL_OBSERVER",
    "CACHE_EVENT_KINDS",
    "active_observer",
]

#: Vocabulary of ``on_cache_event`` kinds, in lifecycle order; a
#: :class:`CacheEventBlock` codes each kind by its index here.
CACHE_EVENT_KINDS = ("hit", "miss", "admit", "evict")


class CacheEventBlock:
    """A batch of cache events as columns: simulated ``times``, kind
    ``codes`` (indices into :data:`CACHE_EVENT_KINDS`) and ``file_ids``.

    Iterating yields the ``(time, kind, file_id)`` tuples the single-event
    hook receives, as plain Python values.
    """

    __slots__ = ("times", "codes", "file_ids")

    def __init__(
        self, times: np.ndarray, codes: np.ndarray, file_ids: np.ndarray
    ) -> None:
        self.times = times
        self.codes = codes
        self.file_ids = file_ids

    def __len__(self) -> int:
        return int(self.times.size)

    def __iter__(self) -> Iterator[Tuple[float, str, int]]:
        kinds = CACHE_EVENT_KINDS
        return zip(
            self.times.tolist(),
            [kinds[c] for c in self.codes.tolist()],
            self.file_ids.tolist(),
        )

    def kind_counts(self) -> Iterable[Tuple[str, int]]:
        """``(kind, count)`` for every kind present in the block."""
        counts = np.bincount(self.codes, minlength=len(CACHE_EVENT_KINDS))
        return [
            (kind, int(n))
            for kind, n in zip(CACHE_EVENT_KINDS, counts.tolist())
            if n
        ]


class RunObserver:
    """Base observer: every hook is a no-op; subclass what you need.

    Subclasses must treat every call as read-only telemetry — mutating
    engine state from a hook voids the bit-identity contract.
    """

    #: Engines skip all instrumentation when this is falsy (see
    #: :func:`active_observer`); ``NullObserver`` flips it off.
    enabled: bool = True

    def on_state_span(self, disk: int, state: str, start: float, end: float) -> None:
        """A disk dwelled in ``state`` over ``[start, end)`` sim-seconds.

        ``state`` labels are lowercase power states (``"spinning"``,
        ``"spindown"``, ``"standby"``, ``"spinup"``, ``"seek"``,
        ``"active"``) or ladder vocabulary (rung names plus
        ``"down:<rung>"`` / ``"wake:<rung>"`` transitions).
        """

    def on_cache_event(self, time: float, kind: str, file_id: int) -> None:
        """A shared-cache event (``kind`` in :data:`CACHE_EVENT_KINDS`)."""

    def on_cache_events(
        self, events: Iterable[Tuple[float, str, int]]
    ) -> None:
        """A batch of ``(time, kind, file_id)`` cache events, in order.

        The fast kernel hands over its cache events once per batch, as a
        :class:`CacheEventBlock`; this default forwards each to
        :meth:`on_cache_event`, so an observer that only implements the
        single-event hook sees the same sequence.
        """
        on_cache_event = self.on_cache_event
        for time, kind, file_id in events:
            on_cache_event(time, kind, file_id)

    def on_thresholds(self, time: float, thresholds: Sequence[float]) -> None:
        """An online DPM controller pushed per-disk idleness thresholds."""

    def on_placement(self, time: float, file_id: int, disk: int) -> None:
        """A write-placement policy allocated ``file_id`` to ``disk``."""


class NullObserver(RunObserver):
    """The default do-nothing observer; engines treat it as absent."""

    enabled = False


#: Shared default instance — safe because it carries no state.
NULL_OBSERVER = NullObserver()


def active_observer(observer: Optional[RunObserver]) -> Optional[RunObserver]:
    """Normalize an observer argument to ``None`` unless it is enabled.

    Engines call this once at the top of a run so their hot loops test
    a plain ``obs is not None`` instead of a method lookup.
    """
    if observer is None or not getattr(observer, "enabled", True):
        return None
    return observer
