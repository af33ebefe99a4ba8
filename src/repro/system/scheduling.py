"""Slack-aware request scheduling (the TimeTrader idea) for both engines.

The paper's trade-off is spin-down energy vs. response time, yet classic
runs dispatch every request the instant it arrives.  TimeTrader
(arXiv 1503.05338) observes that most requests sit far below their tail
SLO — that *per-request slack* can be spent holding requests back, which
lengthens idle gaps, deepens spin-down residency and coalesces wake-ups.
This module is the registry of :class:`RequestScheduler` strategies that
spend that slack, selected via ``StorageConfig(scheduler=...,
scheduler_params=...)`` and honored **identically** by both simulation
engines:

* the event kernel routes arrivals through a release-queue process
  (:func:`repro.system.dispatcher.drive_scheduled_stream`) sitting
  between the stream replay and :meth:`Dispatcher.submit`;
* the fast kernel (:mod:`repro.sim.fastkernel`) runs the same scheduler
  instance as a chunk-carrying pre-pass that transforms arrival chunks
  into release-ordered feeds.

Parity by construction
----------------------

A scheduler never reads engine-internal state.  Its release decisions
are a pure function of (a) the arrival sequence itself, (b) the
run-constant :class:`SchedulingSetup` both engines derive from the same
``StorageConfig``, (c) its **own** deterministic disk model — a private
Lindley/spin-state predictor fed only by its past decisions — and
(d) the optional interval-constant ``slo_estimate`` telemetry published
by the :class:`~repro.control.controller.ThresholdController` at control
boundaries.  Decisions are made in arrival order and release times are
immutable once assigned, so both engines derive the *same* release time
for every request and then submit released requests in the same stable
``(release_time, arrival_sequence)`` order.  The existing 1e-9
engine-equivalence contract then applies to the released stream
unchanged (``tests/differential`` samples scheduler x params via
``REPRO_DIFF_SCHED_CASES``).

Response accounting: a held request's recorded response time measures
from its **original arrival** (hold + queueing + service), not from its
release — deferral is never free, so the energy/p95 frontier the
``slo-frontier`` scheduler axis reports is honest.  Both engines add the
identical hold to the kernel-measured response, keeping bit-parity.

Registered schedulers
---------------------

================ =============================================================
name             rule (``t`` = arrival time, release is always in
                 ``[t, t + max_hold]``)
================ =============================================================
fifo             release = t: today's behavior.  ``StorageConfig`` routes it
                 through the classic unscheduled path, byte-identical to the
                 pre-scheduler simulator (regression-pinned).
slack_defer      project this request's response off the internal disk model;
                 if it sits below ``margin * target`` (and the controller's
                 live percentile estimate, when present, is also below that
                 budget) defer by the spare slack, extending the idle gap it
                 would otherwise cut short.
batch_release    quantize releases up to the next ``window`` epoch so
                 arrivals land in bunches — the classic idle-gap-extending
                 batcher, bounded by ``max_hold``.
spinup_coalesce  park arrivals whose destination disk the model predicts
                 asleep and release the whole parked group together at the
                 group's deadline, so one wake-up (break-even once any
                 request must pay it anyway) absorbs every parked request;
                 requests to spinning or not-yet-placed files pass through.
================ =============================================================

The two forecasting rules, ``slack_defer`` and ``spinup_coalesce``,
decide in the compiled core (:func:`repro.native.release_core`): one C
call per fast-kernel block and one per event-engine arrival, over per-disk
forecast state kept in float64 arrays.  They have no Python twin in this
package: like every simulation, they need the compiled library, and
``reset`` raises :class:`~repro.errors.ConfigError` where it could not be
built (``tests/system/scheduling_oracle.py`` keeps the per-request rules
they are held to).  ``batch_release`` keeps no state and stays a Python
loop: a foreign call per arrival costs the event engine more than its
two-line rule.

Use :func:`make_request_scheduler` to instantiate by name and
:func:`request_scheduler_names` to iterate the registry (the parity
grids do, so new schedulers are covered automatically — reprolint R003
enforces it).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro import native
from repro.disk.drive import WRITE
from repro.errors import ConfigError

__all__ = [
    "DEFAULT_SCHEDULER",
    "RequestScheduler",
    "SchedulingSetup",
    "build_scheduling_setup",
    "make_request_scheduler",
    "normalize_scheduler_params",
    "request_scheduler_names",
    "register_request_scheduler",
]

#: What ``StorageConfig.scheduler`` defaults to (the classic behavior).
DEFAULT_SCHEDULER = "fifo"


@dataclass
class SchedulingSetup:
    """Run-constant inputs a scheduler may consult (identical per engine).

    Attributes
    ----------
    num_disks:
        Pool size.
    mapping:
        The scheduler's private copy of the *initial* ``file_id -> disk``
        table (``-1`` = not yet placed).  Deliberately frozen at run
        start: write placement happens at submit time inside the engines,
        so files placed mid-run are simply unknown here — such requests
        pass through unscheduled, identically on both sides.
    sizes:
        ``file_id -> bytes``.
    access_overhead / transfer_rate:
        Per-disk service constants (seconds, bytes/s).
    threshold:
        Per-disk idle threshold seeding the spin predictor (the
        *configured* first-descent threshold; dynamic controllers move
        the real one mid-run, which the predictor deliberately ignores —
        it is a deterministic heuristic, not a replica of engine state).
    spindown_time / spinup_time:
        Per-disk transition times for the spin predictor.
    slo_target / slo_percentile:
        The run's response-time objective (``None`` when unset).
    """

    num_disks: int
    mapping: np.ndarray
    sizes: np.ndarray
    access_overhead: np.ndarray
    transfer_rate: np.ndarray
    threshold: np.ndarray
    spindown_time: np.ndarray
    spinup_time: np.ndarray
    slo_target: Optional[float]
    slo_percentile: float


def build_scheduling_setup(
    config, fleet, sizes: np.ndarray, mapping: np.ndarray
) -> SchedulingSetup:
    """The :class:`SchedulingSetup` for one run over ``fleet`` (the
    config's :class:`~repro.disk.fleet.ResolvedFleet`).

    Both engines call this with the same config/fleet/catalog/mapping, so
    the scheduler's view — and therefore every release decision — is
    identical across engines by construction.
    """
    return SchedulingSetup(
        num_disks=int(fleet.num_disks),
        mapping=np.asarray(mapping, dtype=np.int64).copy(),
        sizes=np.asarray(sizes, dtype=float),
        access_overhead=fleet.access_overheads,
        transfer_rate=fleet.transfer_rates,
        threshold=fleet.thresholds.astype(float, copy=True),
        spindown_time=fleet.spindown_times,
        spinup_time=fleet.spinup_times,
        slo_target=config.slo_target,
        slo_percentile=float(config.slo_percentile),
    )


def normalize_scheduler_params(
    params: Union[None, dict, tuple, list]
) -> Tuple[Tuple[str, float], ...]:
    """Canonical hashable form: a sorted tuple of ``(name, value)`` pairs.

    ``StorageConfig`` is frozen and pickled into sweep-cache fingerprints,
    so params must normalize to one hashable representation — a dict and
    its equivalent pair-tuple must fingerprint identically.
    """
    if params is None:
        return ()
    if isinstance(params, dict):
        items = params.items()
    elif isinstance(params, (tuple, list)):
        items = []
        for pair in params:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise ConfigError(
                    "scheduler_params must be a dict or (name, value) "
                    f"pairs, got entry {pair!r}"
                )
            items.append(tuple(pair))
    else:
        raise ConfigError(
            f"scheduler_params must be a dict or (name, value) pairs, "
            f"got {params!r}"
        )
    out = []
    for key, value in items:
        if not isinstance(key, str):
            raise ConfigError(f"scheduler param name must be str, got {key!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(
                f"scheduler param {key!r} must be numeric, got {value!r}"
            )
        out.append((key, float(value)))
    out.sort()
    names = [k for k, _ in out]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate scheduler param in {names}")
    return tuple(out)


class _DiskModel:
    """The scheduler's private disk predictor (Lindley + two spin states).

    Mirrors the arithmetic of the engines' serve recursion (next-free
    time, threshold-triggered spin-down, wake penalty) but is fed only by
    the scheduler's own commits — it is a deterministic *forecast* shared
    verbatim by both engines, never a readout of either engine's truth
    (caches, dynamic thresholds and placement updates are invisible to
    it on purpose).  It holds the per-disk float64 constants and the
    next-free times ``avail``, which the compiled release routine
    (:func:`repro.native.release_core`) reads and updates in place.
    """

    __slots__ = ("avail", "_oh", "_rate", "_th", "_down", "_up")

    def __init__(self, setup: SchedulingSetup) -> None:
        n = setup.num_disks
        self.avail = np.zeros(n)
        self._oh = _per_disk(setup.access_overhead, n, "access_overhead")
        self._rate = _per_disk(setup.transfer_rate, n, "transfer_rate")
        self._th = _per_disk(setup.threshold, n, "threshold")
        self._down = _per_disk(setup.spindown_time, n, "spindown_time")
        self._up = _per_disk(setup.spinup_time, n, "spinup_time")


def _per_disk(values, num_disks: int, name: str) -> np.ndarray:
    """One contiguous float64 value per disk (the compiled routine indexes
    it by disk, so a short column is a configuration error, not a read
    past its end)."""
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.shape != (num_disks,):
        raise ConfigError(
            f"scheduling setup {name} must hold one value per disk "
            f"({num_disks}), got shape {arr.shape}"
        )
    return arr


class RequestScheduler:
    """Base class: release decisions in arrival order, one block at a time.

    Subclasses set ``name`` (the registry key) and ``defaults`` (their
    parameter schema — :func:`make_request_scheduler` rejects unknown
    overrides), and implement :meth:`release_many`.  :meth:`reset` is
    called once per run with the :class:`SchedulingSetup`; stateful
    schedulers initialize their cross-request state there.  One instance
    must not be shared between concurrently running simulations.

    Blocks arrive in arrival order, and every request of one block shares
    one ``slo_estimate``.  The fast kernel hands over a whole control
    interval (or chunk) at once, the event engine one request at a time
    through :meth:`release`; a scheduler's releases must therefore not
    depend on how the stream is split into blocks.
    """

    name: str = ""
    #: Parameter schema: name -> default (``None`` = optional, no default).
    defaults: Dict[str, Optional[float]] = {}

    def __init__(self, **params: float) -> None:
        unknown = sorted(set(params) - set(self.defaults))
        if unknown:
            raise ConfigError(
                f"scheduler {self.name!r} got unknown params {unknown}; "
                f"accepts {sorted(self.defaults)}"
            )
        merged = dict(self.defaults)
        merged.update(params)
        self.params: Dict[str, Optional[float]] = merged

    def reset(self, setup: SchedulingSetup) -> None:
        """Prepare per-run state (default: nothing to do)."""

    def release_many(
        self,
        times: Sequence[float],
        file_ids: Sequence[int],
        writes: Optional[Sequence[bool]],
        slo_estimate: Optional[float],
    ) -> Sequence[float]:
        """Release times for one block of arrivals, each in
        ``[t, t + max_hold]``.

        ``times`` and ``file_ids`` are the block's arrivals in arrival
        order; ``writes`` flags the writes (``None`` for an all-read
        block).  The fast kernel passes NumPy arrays (float64, int64 and
        bool) and reads the result through ``np.asarray``, so a list
        works as well as an array.  ``slo_estimate`` is the controller's
        running percentile estimate as of the last control boundary at or
        before the block (``None`` without a dynamic controller, NaN
        before the estimator warms up).  Both engines pass every request
        through exactly once, in arrival order; the returned times are
        final.
        """
        raise NotImplementedError

    def release(
        self,
        t: float,
        file_id: int,
        kind: str,
        slo_estimate: Optional[float] = None,
    ) -> float:
        """One request's release time: :meth:`release_many` of one."""
        return self.release_many(
            [t], [file_id], [kind == WRITE], slo_estimate
        )[0]


#: name -> scheduler class.  Populated by :func:`register_request_scheduler`.
REQUEST_SCHEDULERS: Dict[str, Type[RequestScheduler]] = {}


def register_request_scheduler(
    cls: Type[RequestScheduler],
) -> Type[RequestScheduler]:
    """Class decorator adding a scheduler to the registry (keyed by ``name``)."""
    if not cls.name:
        raise ConfigError(f"{cls.__name__} must set a non-empty name")
    if cls.name in REQUEST_SCHEDULERS:
        raise ConfigError(f"duplicate request scheduler {cls.name!r}")
    REQUEST_SCHEDULERS[cls.name] = cls
    return cls


def request_scheduler_names() -> Tuple[str, ...]:
    """All registered scheduler names (registration order; default first)."""
    return tuple(REQUEST_SCHEDULERS)


def make_request_scheduler(
    scheduler: Union[str, RequestScheduler, None] = None,
    params: Union[None, dict, tuple, list] = None,
) -> RequestScheduler:
    """Instantiate a scheduler by registry name (``None`` = ``fifo``).

    A ready :class:`RequestScheduler` instance passes through unchanged
    (callers own its lifecycle; a stateful instance must not be shared
    between concurrently running simulations).
    """
    if scheduler is None:
        scheduler = DEFAULT_SCHEDULER
    if isinstance(scheduler, RequestScheduler):
        if params:
            raise ConfigError(
                "scheduler_params only applies to registry names, not "
                "ready RequestScheduler instances"
            )
        return scheduler
    try:
        cls = REQUEST_SCHEDULERS[scheduler]
    except KeyError:
        raise ConfigError(
            f"unknown request scheduler {scheduler!r}; choose from "
            f"{request_scheduler_names()}"
        ) from None
    return cls(**dict(normalize_scheduler_params(params)))


# -- the registered strategies --------------------------------------------------


@register_request_scheduler
class Fifo(RequestScheduler):
    """Release every request at its arrival instant (today's behavior).

    ``StorageConfig.request_scheduler()`` returns ``None`` for this name
    so fifo runs skip the scheduling machinery entirely and stay
    byte-identical to the pre-scheduler simulator; the class exists so
    the registry (and the parity grids iterating it) include the
    baseline.
    """

    name = "fifo"
    defaults: Dict[str, Optional[float]] = {}

    def release_many(
        self,
        times: Sequence[float],
        file_ids: Sequence[int],
        writes: Optional[Sequence[bool]],
        slo_estimate: Optional[float],
    ) -> Sequence[float]:
        return list(times)


#: The per-request call's count and stress flags, made once.
_ONE = ctypes.c_int64(1)
_STRESSED = (ctypes.c_int64(0), ctypes.c_int64(1))


def _listed(xs: Sequence) -> Sequence:
    """An array block as a list, for a Python loop: its scalar
    arithmetic costs less on Python numbers than on NumPy scalars."""
    return xs.tolist() if isinstance(xs, np.ndarray) else xs


class _CompiledRule(RequestScheduler):
    """A forecasting rule whose release decisions run in the compiled core.

    A subclass's :meth:`reset` checks its params and calls :meth:`_bind`,
    which builds the catalog and disk forecast once per run and the rule's
    :class:`~repro.native.SchedArgs` block over their arrays (a
    :class:`~repro.errors.ConfigError` when the library could not be
    built).  :meth:`release_many` is then one call of
    :func:`repro.native.release_core` per block, and :meth:`release` one
    per request through preallocated one-element buffers.  The rule itself
    lives only in ``serve.c``.
    """

    #: A block whose ``slo_estimate`` exceeds this passes through
    #: (slack_defer's stress gate; never for spinup_coalesce).
    _gate = math.inf

    def _bind(
        self,
        setup: SchedulingSetup,
        max_hold: float,
        window: float = 0.0,
        budget: float = 0.0,
    ) -> None:
        """Build the per-run state and the compiled routine's argument
        block pointing at it."""
        mapping = np.ascontiguousarray(setup.mapping, dtype=np.int64)
        sizes = np.ascontiguousarray(setup.sizes, dtype=float)
        if mapping.ndim != 1 or sizes.shape != mapping.shape:
            raise ConfigError(
                f"scheduling setup needs one size per mapped file, got "
                f"{sizes.shape} sizes for a mapping of {mapping.shape}"
            )
        if mapping.size and int(mapping.max()) >= setup.num_disks:
            raise ConfigError(
                f"scheduling setup maps a file to disk "
                f"{int(mapping.max())} of a {setup.num_disks}-disk pool"
            )
        self._model = model = _DiskModel(setup)
        self._group_until = np.full(setup.num_disks, -math.inf)
        self._core = native.release_core()
        self._mapping = mapping
        self._sizes = sizes
        args = native.SchedArgs(
            rule=native.RULES[self.name], nf=mapping.size,
            map=mapping.ctypes.data, size=sizes.ctypes.data,
            oh=model._oh.ctypes.data, rate=model._rate.ctypes.data,
            th=model._th.ctypes.data, down=model._down.ctypes.data,
            up=model._up.ctypes.data, avail=model.avail.ctypes.data,
            group_until=self._group_until.ctypes.data,
            budget=budget, window=window, max_hold=max_hold,
        )
        self._args = ctypes.byref(args)  # holds a reference to ``args``
        self._t1 = (ctypes.c_double * 1)()
        self._f1 = (ctypes.c_int64 * 1)()
        self._r1 = (ctypes.c_double * 1)()

    def release_many(
        self,
        times: Sequence[float],
        file_ids: Sequence[int],
        writes: Optional[Sequence[bool]],
        slo_estimate: Optional[float],
    ) -> Sequence[float]:
        stressed = slo_estimate is not None and slo_estimate > self._gate
        t = np.ascontiguousarray(times, dtype=float)
        f = np.ascontiguousarray(file_ids, dtype=np.int64)
        if t.ndim != 1 or f.shape != t.shape:
            raise ValueError(
                f"release_many needs one file id per arrival, got "
                f"{f.size} ids for {t.size} arrivals"
            )
        out = np.empty(t.size)
        self._core(
            self._args, ctypes.c_void_p(t.ctypes.data),
            ctypes.c_void_p(f.ctypes.data), ctypes.c_int64(t.size),
            _STRESSED[stressed], ctypes.c_void_p(out.ctypes.data),
        )
        return out

    def release(
        self,
        t: float,
        file_id: int,
        kind: str,
        slo_estimate: Optional[float] = None,
    ) -> float:
        stressed = slo_estimate is not None and slo_estimate > self._gate
        self._t1[0] = t
        self._f1[0] = file_id
        self._core(self._args, self._t1, self._f1, _ONE, _STRESSED[stressed],
                   self._r1)
        return self._r1[0]


@register_request_scheduler
class SlackDefer(_CompiledRule):
    """Spend each request's projected tail slack batching it onto epochs.

    Each request is a candidate for deferral to the next budget-aligned
    epoch — so deferred arrivals land together and the gaps between
    epochs are request-free (a uniform per-request shift would leave
    every idle gap exactly as long as before; it is the *batching* that
    buys spin-down residency and shared wake-ups, TimeTrader-style).
    Deferral is all-or-nothing: a request whose next epoch is farther
    than ``max_hold`` away (or infinitely far, when ``t / window``
    overflows) passes through instead of being shifted mid-window,
    because a truncated hold delays the response without merging any
    wake-up.  The internal disk model projects the response the
    request would see measured from its arrival if released at the epoch
    — queueing behind the model's backlog, the wake penalty if the disk
    is predicted asleep *at the release* (a deferral that causes the very
    wake it was meant to avoid busts the budget), then service.  Only if
    that projection fits inside ``margin * target`` is the request held;
    otherwise (and for requests arriving exactly on an epoch) it passes
    through.  When a dynamic controller is live and its running
    percentile estimate already exceeds the budget, the system is
    stressed and requests pass through undeferred (the feedback
    composition with ``slo_feedback``).

    ``target`` defaults to the run's ``slo_target``; a run with neither
    is a configuration error.  ``window`` overrides the epoch length
    (default: the budget itself).
    """

    name = "slack_defer"
    defaults: Dict[str, Optional[float]] = {
        "margin": 0.8,
        "max_hold": 30.0,
        "target": None,
        "window": None,
    }

    def reset(self, setup: SchedulingSetup) -> None:
        target = self.params["target"]
        if target is None:
            target = setup.slo_target
        if target is None or not target > 0:
            raise ConfigError(
                "slack_defer needs a positive response-time target: set "
                "scheduler_params={'target': ...} or StorageConfig.slo_target"
            )
        margin = self.params["margin"]
        if not 0 < margin <= 1:
            raise ConfigError(
                f"slack_defer margin must be in (0, 1], got {margin}"
            )
        max_hold = self.params["max_hold"]
        if not max_hold >= 0:  # NaN too
            raise ConfigError(
                f"slack_defer max_hold must be >= 0, got {max_hold}"
            )
        self._budget = self._gate = float(margin * target)
        self._max_hold = float(max_hold)
        window = self.params["window"]
        if window is None:
            window = self._budget
        if not window > 0:
            raise ConfigError(
                f"slack_defer window must be positive, got {window}"
            )
        self._window = float(window)
        self._bind(setup, self._max_hold, self._window, self._budget)


@register_request_scheduler
class BatchRelease(RequestScheduler):
    """Quantize releases onto ``window`` epochs (idle-gap-extending batching).

    Every arrival is held until the next multiple of ``window``, so
    requests land in bunches and the gaps between bunches are request-free
    — the simplest way to buy longer idle gaps with bounded per-request
    delay.  ``max_hold`` caps the hold independently of the window (an
    arrival just past an epoch would otherwise wait a full window, and
    one whose next epoch is infinitely far, when ``t / window``
    overflows, waits exactly ``max_hold``).
    """

    name = "batch_release"
    defaults: Dict[str, Optional[float]] = {"window": 10.0, "max_hold": 30.0}

    def reset(self, setup: SchedulingSetup) -> None:
        if not self.params["window"] > 0:
            raise ConfigError(
                f"batch_release window must be positive, got "
                f"{self.params['window']}"
            )
        max_hold = self.params["max_hold"]
        if not max_hold >= 0:  # NaN too
            raise ConfigError(
                f"batch_release max_hold must be >= 0, got {max_hold}"
            )
        self._window = float(self.params["window"])
        self._max_hold = float(max_hold)

    def release_many(
        self,
        times: Sequence[float],
        file_ids: Sequence[int],
        writes: Optional[Sequence[bool]],
        slo_estimate: Optional[float],
    ) -> List[float]:
        window = self._window
        max_hold = self._max_hold
        ceil = math.ceil
        out: List[float] = []
        append = out.append
        for t in _listed(times):
            # The next epoch, guarded back onto [t, ...) (ceil(t / w) * w
            # can land one float ulp below t when t / w rounds down to an
            # integer), capped at t + max_hold.
            try:
                epoch = ceil(t / window) * window
            except OverflowError:  # t / window is infinite
                epoch = math.inf
            if not epoch > t:
                epoch = t
            cap = t + max_hold
            append(cap if cap < epoch else epoch)
        return out

    def release(
        self,
        t: float,
        file_id: int,
        kind: str,
        slo_estimate: Optional[float] = None,
    ) -> float:
        # The rule reads only the arrival time.
        return self.release_many((t,), (), None, None)[0]


@register_request_scheduler
class SpinupCoalesce(_CompiledRule):
    """Park arrivals bound for a sleeping disk; wake once per group.

    When the model predicts the destination disk fully in standby, the
    first parked request opens a per-disk group with deadline
    ``t + max_hold``; every later arrival for that disk joins the group
    and the whole group releases together at the deadline.  The wake the
    group eventually pays is break-even by construction — some parked
    request had to pay it anyway — and parking amortizes that one
    spin-up over every request collected during the hold window, while
    the sleeping disk's gap extends by the full window.  Requests whose
    destination is spinning (or not yet placed) pass through untouched.
    """

    name = "spinup_coalesce"
    defaults: Dict[str, Optional[float]] = {"max_hold": 45.0}

    def reset(self, setup: SchedulingSetup) -> None:
        max_hold = self.params["max_hold"]
        if not max_hold >= 0:  # NaN too
            raise ConfigError(
                f"spinup_coalesce max_hold must be >= 0, got {max_hold}"
            )
        self._max_hold = float(max_hold)
        self._bind(setup, self._max_hold)
