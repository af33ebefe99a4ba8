"""Storage-system configuration with the paper's defaults."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Optional, Union

from repro.control.controller import controller_from
from repro.control.policies import (
    DEFAULT_DPM_POLICY,
    DPM_POLICIES,
    dpm_policy_names,
)
from repro.disk.dpm import DpmLadder, dpm_ladder_names, make_dpm_ladder
from repro.disk.fleet import Fleet, ResolvedFleet, fleet_names, make_fleet
from repro.disk.service import ServiceModel
from repro.disk.specs import ST3500630AS, DiskSpec
from repro.errors import ConfigError
from repro.system.placement import (
    DEFAULT_WRITE_POLICY,
    make_placement_policy,
    placement_policy_names,
)
from repro.system.scheduling import (
    DEFAULT_SCHEDULER,
    make_request_scheduler,
    normalize_scheduler_params,
    request_scheduler_names,
)
from repro.units import GiB

__all__ = ["StorageConfig"]

#: Numeric fields and the number type each must hold.
_NUMERIC_FIELDS = {
    "num_disks": Integral,
    "idleness_threshold": Real,
    "load_constraint": Real,
    "storage_utilization": Real,
    "cache_capacity": Real,
    "cache_hit_latency": Real,
    "control_interval": Real,
    "slo_target": Real,
    "slo_percentile": Real,
}
#: Numeric fields that may be ``None``.
_OPTIONAL_FIELDS = ("idleness_threshold", "slo_target")


@dataclass(frozen=True)
class StorageConfig:
    """Everything needed to build a :class:`~repro.system.storage.StorageSystem`.

    Attributes
    ----------
    spec:
        Drive model (Table 2's Seagate by default): the pool is
        ``Fleet.uniform(spec)`` unless ``fleet`` is set.
    fleet:
        Optional heterogeneous fleet: a preset name from
        :data:`repro.disk.fleet.FLEETS` (``mixed_generation``) or a
        ready :class:`~repro.disk.fleet.Fleet`.  The fleet's repeating
        profile of per-disk specs (and optional per-disk
        ladders/thresholds) is tiled across the pool; per-disk
        capacities, transfer rates, power draws and break-even
        thresholds flow through packing, placement, control and both
        engines.  ``None`` (default) is the uniform ``spec`` pool.
        Either way a run resolves the pool once
        (:meth:`resolved_fleet`) and every layer reads that one
        :class:`~repro.disk.fleet.ResolvedFleet`.
    num_disks:
        Size of the disk pool (Table 1 uses 100).  Allocators may use fewer
        disks; the remainder idle and eventually spin down.
    idleness_threshold:
        Spin-down threshold in seconds; ``None`` = the spec's break-even
        value (53.3 s); ``math.inf`` disables spin-down.
    load_constraint:
        The paper's ``L``: per-disk load budget as a fraction of the disk's
        service-time capacity (Figures 2-4 sweep 0.4-0.9).
    storage_utilization:
        Usable fraction of the raw capacity given to the packer.
    service_mode:
        ``"full"`` (seek + rotation + transfer) or ``"transfer"``.
    cache_policy / cache_capacity / cache_hit_latency:
        Optional shared front-end cache (paper: 16 GB LRU, hits free).
    write_policy:
        Write-placement strategy for not-yet-mapped written files, by
        registry name (see :mod:`repro.system.placement`).  The default
        ``"spinning_best_fit"`` is the paper's §1.1 rule (best-fit among
        spinning disks, worst-fit standby fallback); alternatives
        (``spinning_worst_fit``, ``first_fit_spinning``, ``round_robin``,
        ``coldest_disk``, ``fullest_spinning``, ``hottest_spinning``) are
        swept by the ``placement`` ablation.  Every policy is honored
        identically by both engines.
    dpm_policy:
        Online dynamic-power-management policy, by registry name (see
        :mod:`repro.control.policies`).  The default ``"fixed"`` is the
        pre-control behavior — one static ``idleness_threshold``, engines
        take the uncontrolled code path byte-identically.  Dynamic
        policies (``adaptive_timeout``, ``exponential_predictive``,
        ``slo_feedback``) adjust per-disk thresholds every
        ``control_interval`` seconds from streaming telemetry and are
        honored identically (~1e-9) by both engines.
    control_interval:
        Length of one control interval in seconds (dynamic policies
        decide once per interval; ignored by ``"fixed"``).
    dpm_ladder:
        Optional multi-state power ladder: a preset name from
        :data:`repro.disk.dpm.DPM_LADDERS` (``two_state``, ``nap``,
        ``drpm4``) or a ready :class:`~repro.disk.dpm.DpmLadder`.
        ``None`` (default) keeps the classic Figure 1 two-state drive —
        byte-identical to the pre-ladder simulator; the ``two_state``
        *preset* routes through the ladder machinery but is regression-
        tested bit-equal to that classic path.  With a ladder,
        ``idleness_threshold`` (and any dynamic ``dpm_policy``) steers
        the *first-descent* threshold; deeper entries scale
        proportionally (see :meth:`DpmLadder.scaled_entries`).  Both
        engines honor ladders identically (~1e-9).
    slo_target / slo_percentile:
        Response-time service-level objective: ``slo_target`` seconds at
        the ``slo_percentile``-th percentile.  Required by
        ``slo_feedback`` (which tightens/relaxes thresholds to maximize
        power saving subject to the target) and ignored by policies that
        do not steer by it.
    scheduler / scheduler_params:
        Slack-aware request scheduling (see
        :mod:`repro.system.scheduling`): ``scheduler`` names a
        :class:`~repro.system.scheduling.RequestScheduler` from the
        registry (``"fifo"`` default — requests dispatch at arrival,
        byte-identical to the pre-scheduler simulator; ``"slack_defer"``,
        ``"batch_release"``, ``"spinup_coalesce"`` hold requests back to
        lengthen idle gaps and coalesce spin-ups) and
        ``scheduler_params`` tunes it (a dict or ``(name, value)``
        pairs, normalized to a sorted hashable tuple — e.g.
        ``{"margin": 0.7, "max_hold": 20.0}``).  Both engines honor the
        schedule identically (~1e-9); held requests' response times
        measure from original arrival, so deferral is never free.
        ``slack_defer`` composes with the ``slo_feedback`` controller by
        reading its live percentile telemetry.
    engine:
        Simulation kernel: ``"fast"`` (default; the batched kernel in
        :mod:`repro.sim.fastkernel`; covers read *and* write streams, the
        §1.1 write-allocation policy and shared whole-file caches on
        array-backed *and chunked* streams, typically 5-50x faster — see
        that module's engine coverage matrix) or ``"event"`` (the
        discrete-event loop; supports every feature, including iterator
        streams and placement classes outside the rule table).
    metrics_mode:
        ``"full"`` (default) materializes the per-request response array on
        :class:`~repro.system.metrics.SimulationResult`;
        ``"streaming"`` replaces it with bounded-memory accumulators
        (``response_times`` becomes ``None``, ``response_stats`` answers
        mean/max exactly and p50/p95/p99 via P² estimates).  Required for
        out-of-core runs — a chunked 10^8-request stream cannot hold its
        responses in memory.
    chunk_size:
        When set, the fast kernel consumes array-backed streams in chunks
        of this many requests (via ``stream.chunks(chunk_size)``) instead
        of one monolithic pass — bit-identical results, bounded working
        set.  Streams that are already chunked (expose ``iter_chunks``)
        are consumed as-is regardless of this setting.  Ignored by the
        event engine, which is request-at-a-time anyway.
    """

    spec: DiskSpec = ST3500630AS
    fleet: Union[None, str, Fleet] = None
    num_disks: int = 100
    idleness_threshold: Optional[float] = None
    load_constraint: float = 0.8
    storage_utilization: float = 1.0
    service_mode: str = "full"
    cache_policy: Optional[str] = None
    cache_capacity: float = 16 * GiB
    cache_hit_latency: float = 0.0
    write_policy: str = DEFAULT_WRITE_POLICY
    dpm_policy: str = DEFAULT_DPM_POLICY
    control_interval: float = 250.0
    dpm_ladder: Union[None, str, DpmLadder] = None
    slo_target: Optional[float] = None
    slo_percentile: float = 95.0
    scheduler: str = DEFAULT_SCHEDULER
    scheduler_params: tuple = ()
    engine: str = "fast"
    metrics_mode: str = "full"
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        # Type first, so a string or None in a numeric field is a typed
        # error rather than a bare TypeError from a comparison below.
        for name, kind in _NUMERIC_FIELDS.items():
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_FIELDS:
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is Integral else "a number"
                raise ConfigError(f"{name} must be {noun}, got {value!r}")
        if self.num_disks < 1:
            raise ConfigError("num_disks must be >= 1")
        if isinstance(self.fleet, str) and self.fleet not in fleet_names():
            raise ConfigError(
                f"unknown fleet {self.fleet!r}; choose from {fleet_names()}"
            )
        if self.fleet is not None and not isinstance(self.fleet, (str, Fleet)):
            raise ConfigError("fleet must be a preset name or a Fleet")
        if not 0 < self.load_constraint <= 1:
            raise ConfigError(
                f"load_constraint must be in (0, 1], got {self.load_constraint}"
            )
        if not 0 < self.storage_utilization <= 1:
            raise ConfigError(
                "storage_utilization must be in (0, 1], got "
                f"{self.storage_utilization}"
            )
        # ``not x >= 0`` / ``not x > 0`` so NaN fails these checks too.
        threshold = self.idleness_threshold
        if threshold is not None and not threshold >= 0:
            raise ConfigError("idleness_threshold must be >= 0")
        # A hit is served in finite time: an infinite latency would turn
        # every mean and percentile of the run into inf.
        if not 0 <= self.cache_hit_latency < math.inf:
            raise ConfigError("cache_hit_latency must be finite and >= 0")
        if not self.cache_capacity > 0:
            raise ConfigError("cache_capacity must be positive")
        if self.write_policy not in placement_policy_names():
            raise ConfigError(
                f"unknown write placement policy {self.write_policy!r}; "
                f"choose from {placement_policy_names()}"
            )
        if self.dpm_policy not in dpm_policy_names():
            raise ConfigError(
                f"unknown DPM policy {self.dpm_policy!r}; "
                f"choose from {dpm_policy_names()}"
            )
        if not self.control_interval > 0:
            raise ConfigError("control_interval must be positive")
        if isinstance(self.dpm_ladder, str) and (
            self.dpm_ladder not in dpm_ladder_names()
        ):
            raise ConfigError(
                f"unknown DPM ladder {self.dpm_ladder!r}; "
                f"choose from {dpm_ladder_names()}"
            )
        if self.dpm_ladder is not None and not isinstance(
            self.dpm_ladder, (str, DpmLadder)
        ):
            raise ConfigError(
                "dpm_ladder must be a preset name or a DpmLadder"
            )
        if self.slo_target is not None and not self.slo_target > 0:
            raise ConfigError("slo_target must be positive when set")
        if not 0 < self.slo_percentile < 100:
            raise ConfigError(
                f"slo_percentile must be in (0, 100), got "
                f"{self.slo_percentile}"
            )
        if DPM_POLICIES[self.dpm_policy].requires_slo and self.slo_target is None:
            raise ConfigError(
                f"dpm_policy {self.dpm_policy!r} requires an slo_target "
                "(seconds at slo_percentile)"
            )
        if self.scheduler not in request_scheduler_names():
            raise ConfigError(
                f"unknown request scheduler {self.scheduler!r}; "
                f"choose from {request_scheduler_names()}"
            )
        # Normalize params to the canonical hashable tuple (the config is
        # frozen and pickled into sweep-cache fingerprints, so a dict and
        # its pair-tuple form must fingerprint identically), then build a
        # throwaway instance so unknown params fail at construction.
        object.__setattr__(
            self,
            "scheduler_params",
            normalize_scheduler_params(self.scheduler_params),
        )
        make_request_scheduler(self.scheduler, self.scheduler_params)
        if self.engine not in ("event", "fast"):
            raise ConfigError(
                f"engine must be 'event' or 'fast', got {self.engine!r}"
            )
        if self.metrics_mode not in ("full", "streaming"):
            raise ConfigError(
                "metrics_mode must be 'full' or 'streaming', got "
                f"{self.metrics_mode!r}"
            )
        if self.chunk_size is not None and (
            not isinstance(self.chunk_size, int) or self.chunk_size < 1
        ):
            raise ConfigError(
                f"chunk_size must be a positive integer, got {self.chunk_size!r}"
            )

    @property
    def usable_capacity(self) -> float:
        """Bytes the packer may place on one disk (uniform pools).

        With a heterogeneous ``fleet`` this is the representative
        (disk 0) figure; a run budgets each disk by its own
        ``resolved_fleet(...).capacities * storage_utilization``.
        """
        if self.fleet is not None:
            return float(self.resolved_fleet(1).capacities[0]
                         * self.storage_utilization)
        return self.spec.capacity * self.storage_utilization

    def resolved_fleet(self, num_disks: Optional[int] = None) -> ResolvedFleet:
        """The per-disk spec/ladder/threshold view of the pool: the one
        description of its disks a run hands to both engines, the
        dispatcher, the controller and the scheduler.

        ``fleet=None`` resolves to :meth:`Fleet.uniform` over ``spec``
        (``dpm_ladder`` and ``idleness_threshold`` apply to every disk),
        whose vectors repeat the paper's scalar figures.
        """
        n = self.num_disks if num_disks is None else num_disks
        fleet = make_fleet(self.fleet)
        if fleet is None:
            fleet = Fleet.uniform(self.spec)
        return fleet.resolve(
            n,
            default_ladder=self.dpm_ladder,
            default_threshold=self.idleness_threshold,
        )

    @property
    def threshold(self) -> float:
        """The effective idleness threshold (break-even when unset).

        With a ladder configured this is the *first-descent* threshold;
        when ``idleness_threshold`` is unset it defaults to the ladder's
        native first entry (for the ``two_state`` preset that is exactly
        the break-even value).
        """
        if self.idleness_threshold is not None:
            return self.idleness_threshold
        if self.dpm_ladder is not None:
            return self.ladder().base_threshold
        return self.spec.breakeven_threshold()

    def ladder(self) -> Optional[DpmLadder]:
        """The resolved :class:`~repro.disk.dpm.DpmLadder`, or ``None``
        for the classic two-state drive."""
        return make_dpm_ladder(self.dpm_ladder, self.spec)

    def service_model(self) -> ServiceModel:
        """The configured :class:`~repro.disk.service.ServiceModel`."""
        return ServiceModel(self.spec, self.service_mode)

    def placement_policy(self):
        """A fresh :class:`~repro.system.placement.WritePlacementPolicy`.

        A new instance per call: stateful policies (round-robin's cursor)
        must not leak decisions between independent simulation runs.
        """
        return make_placement_policy(self.write_policy)

    def request_scheduler(self):
        """A fresh :class:`~repro.system.scheduling.RequestScheduler`
        for one run, or ``None`` for ``"fifo"`` — the identity schedule
        takes the classic unscheduled code path in both engines, so fifo
        runs stay byte-identical to the pre-scheduler simulator.
        """
        if self.scheduler == DEFAULT_SCHEDULER and not self.scheduler_params:
            return None
        return make_request_scheduler(self.scheduler, self.scheduler_params)

    def dpm_controller(self, fleet: ResolvedFleet):
        """A fresh :class:`~repro.control.controller.ThresholdController`
        for one run over ``fleet`` (this config's
        :meth:`resolved_fleet`), or ``None`` when ``dpm_policy`` is static
        (``fixed``) — static policies take the uncontrolled, byte-identical
        code path in both engines.
        """
        return controller_from(
            self.dpm_policy,
            self.control_interval,
            fleet.num_disks,
            fleet.thresholds,
            fleet.specs,
            slo_target=self.slo_target,
            slo_percentile=self.slo_percentile,
        )

    def with_overrides(self, **kwargs) -> "StorageConfig":
        """Copy with some fields replaced."""
        return replace(self, **kwargs)
