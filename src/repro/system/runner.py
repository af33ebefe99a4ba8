"""High-level experiment runners: allocate, simulate, compare, reorganize.

These are the entry points the experiments and examples use::

    workload = generate_workload(SyntheticWorkloadParams(arrival_rate=6))
    cfg = StorageConfig(load_constraint=0.7)
    result = run_policy(workload.catalog, workload.stream, "pack", cfg)
    baseline = run_policy(workload.catalog, workload.stream, "random", cfg)
    print(result.power_saving_vs(baseline))
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.baselines import (
    best_fit,
    first_fit,
    first_fit_decreasing,
    next_fit,
    random_allocation,
    round_robin_allocation,
)
from repro.core.grouped import pack_disks_grouped
from repro.core.item import ItemArray, item_array
from repro.core.packing import pack_disks
from repro.errors import ConfigError
from repro.sim.rng import rng_from_seed
from repro.system.config import StorageConfig
from repro.system.metrics import ResponseStats, SimulationResult
from repro.system.storage import StorageSystem
from repro.workload.arrivals import RequestStream
from repro.workload.catalog import FileCatalog
from repro.workload.mixed import MixedRequestStream

__all__ = [
    "ALLOCATOR_NAMES",
    "ReorganizingRunner",
    "allocate",
    "build_items",
    "run_policy",
    "simulate",
]

#: Allocation policies accepted by :func:`allocate` (``pack_v<k>`` for any k).
ALLOCATOR_NAMES = (
    "pack",
    "pack_v4",
    "random",
    "round_robin",
    "first_fit",
    "first_fit_decreasing",
    "best_fit",
    "next_fit",
)

_PACK_V = re.compile(r"^pack_v(\d+)$")


def build_items(
    catalog: FileCatalog,
    config: StorageConfig,
    arrival_rate: float,
    popularities: Optional[np.ndarray] = None,
) -> ItemArray:
    """Turn a catalog into normalized 2DVPP items, held as arrays.

    ``l_i = R p_i f(s_i)`` normalized by the load constraint ``L``;
    ``s_i`` normalized by the usable per-disk capacity.  ``popularities``
    overrides the catalog's (used by reorganization with observed counts).
    """
    service = config.service_model()
    pops = catalog.popularities if popularities is None else popularities
    loads = service.loads(catalog.sizes, pops, arrival_rate)
    return item_array(
        catalog.sizes,
        loads,
        storage_capacity=config.usable_capacity,
        load_capacity=config.load_constraint,
    )


def allocate(
    catalog: FileCatalog,
    policy: str,
    config: StorageConfig,
    arrival_rate: float,
    rng=None,
    num_disks: Optional[int] = None,
    popularities: Optional[np.ndarray] = None,
) -> Allocation:
    """Run the named allocation policy over the catalog.

    ``num_disks`` bounds the pool for the fixed-pool policies
    (``random``/``round_robin``); defaults to ``config.num_disks``.
    """
    items = build_items(catalog, config, arrival_rate, popularities)
    if num_disks is None:
        num_disks = config.num_disks
    match = _PACK_V.match(policy)
    if policy == "pack":
        return pack_disks(items)
    if match:
        return pack_disks_grouped(items, v=int(match.group(1)))
    if policy == "random":
        return random_allocation(items, num_disks, rng=rng_from_seed(rng))
    if policy == "round_robin":
        return round_robin_allocation(items, num_disks)
    if policy == "first_fit":
        return first_fit(items)
    if policy == "first_fit_decreasing":
        return first_fit_decreasing(items)
    if policy == "best_fit":
        return best_fit(items)
    if policy == "next_fit":
        return next_fit(items)
    raise ConfigError(
        f"unknown allocation policy {policy!r}; choose from "
        f"{ALLOCATOR_NAMES} (or pack_v<k>)"
    )


def simulate(
    catalog: FileCatalog,
    stream: RequestStream,
    allocation: Allocation,
    config: StorageConfig,
    num_disks: Optional[int] = None,
    duration: Optional[float] = None,
    label: Optional[str] = None,
) -> SimulationResult:
    """Simulate ``stream`` against an allocation; returns the metrics.

    ``num_disks`` sets the pool size but grows automatically when the
    allocation references more disks (packing at a tight load constraint
    can exceed a nominal pool; the extra disks idle and spin down like any
    other unused disk).  Use :class:`~repro.system.storage.StorageSystem`
    directly for strict pool-size enforcement.
    """
    if num_disks is not None and num_disks < allocation.num_disks:
        num_disks = allocation.num_disks
    system = StorageSystem(
        catalog,
        allocation.mapping(catalog.n),
        config,
        num_disks=num_disks,
    )
    return system.run(
        stream,
        duration=duration,
        label=label or allocation.algorithm,
    )


def run_policy(
    catalog: FileCatalog,
    stream: RequestStream,
    policy: str,
    config: StorageConfig,
    arrival_rate: Optional[float] = None,
    rng=None,
    num_disks: Optional[int] = None,
    duration: Optional[float] = None,
) -> SimulationResult:
    """Allocate with ``policy`` then simulate; the one-call entry point.

    ``arrival_rate`` defaults to the stream's empirical rate (what a real
    deployment would estimate from logs).
    """
    if arrival_rate is None:
        arrival_rate = stream.mean_rate
    allocation = allocate(
        catalog, policy, config, arrival_rate, rng=rng, num_disks=num_disks
    )
    return simulate(
        catalog, stream, allocation, config,
        num_disks=num_disks, duration=duration,
    )


class ReorganizingRunner:
    """Semi-dynamic operation (paper §1.1/§6): re-pack at intervals using
    access statistics observed in the previous epoch.

    The stream is split into epochs of ``interval`` seconds.  Epoch 0 runs
    on the initial allocation (from catalog popularities); each later epoch
    re-packs with popularities estimated from the previous epoch's observed
    request counts (plus smoothing), modelling the paper's "accumulating
    access statistics over periodic intervals and performing reorganization".
    Remapping is instantaneous; the number of files whose disk changed is
    reported per epoch so migration cost can be modelled externally.

    Mixed read/write streams (anything carrying a per-request ``kinds``
    array, e.g. :class:`~repro.workload.mixed.MixedRequestStream`) are
    split with their kinds intact, so writes stay writes in every epoch.

    ``initial_candidates`` optionally names several allocation policies to
    tournament **at every re-pack epoch**: the candidates fan out in
    parallel through the sweep orchestrator
    (:func:`repro.experiments.orchestrator.default_runner`, so
    ``--workers``/caching apply) against that epoch's stream and
    popularity estimate, and the energy-best packing (mean response breaks
    ties) continues the serial chain.  The per-epoch winners are recorded
    on :attr:`chosen_policies` (``chosen_initial_policy`` keeps exposing
    epoch 0's) and each epoch's full candidate results on
    :attr:`candidate_results`.  Without candidates the runner keeps the
    original serial-chain semantics: every epoch re-packs with ``policy``
    and no fan-out happens.

    Streaming metrics caveat: with ``config.metrics_mode="streaming"``
    the combined result's ``response_stats`` come from
    :meth:`~repro.system.metrics.ResponseStats.merge` over the per-epoch
    stats — count/min/max/mean survive, but the P² percentile estimators
    cannot be combined after the fact, so the merged p50/p95/p99 are
    ``NaN`` (the first lossy merge emits a :class:`RuntimeWarning`).
    Per-epoch percentiles remain available on
    ``epoch_results[i].response_stats``.
    """

    def __init__(
        self,
        catalog: FileCatalog,
        config: StorageConfig,
        policy: str = "pack",
        interval: float = 1000.0,
        smoothing: float = 0.5,
        initial_candidates: Optional[Sequence[str]] = None,
    ) -> None:
        if interval <= 0:
            raise ConfigError("interval must be positive")
        if not 0 <= smoothing <= 1:
            raise ConfigError("smoothing must be in [0, 1]")
        self.catalog = catalog
        self.config = config
        self.policy = policy
        self.interval = interval
        self.smoothing = smoothing
        self.initial_candidates: Tuple[str, ...] = tuple(
            dict.fromkeys(initial_candidates or ())
        )
        #: Which candidate won the epoch-0 fan-out (``None`` until
        #: :meth:`run` with ``initial_candidates`` set has completed).
        self.chosen_initial_policy: Optional[str] = None
        #: Winning candidate per epoch (empty when fan-out is off).
        self.chosen_policies: List[str] = []
        #: Per-epoch result per candidate from the fan-out (one dict per
        #: epoch; empty list when fan-out is off).
        self.candidate_results: List[Dict[str, SimulationResult]] = []
        #: Epoch-0 result per candidate from the fan-out (for inspection;
        #: alias of ``candidate_results[0]`` once run).
        self.initial_candidate_results: Dict[str, SimulationResult] = {}
        self.moved_files: List[int] = []
        self.epoch_results: List[SimulationResult] = []

    def run(self, stream: RequestStream, rng=None) -> SimulationResult:
        """Run the whole stream with periodic reorganization."""
        epochs = self._split(stream)
        pops = self.catalog.popularities
        mapping_prev: Optional[np.ndarray] = None
        total_energy = 0.0
        responses = []
        stats_parts: List = []
        epoch_energy: List[np.ndarray] = []
        arrivals = completions = spinups = spindowns = 0
        always_on = 0.0
        max_disks = 0
        state_durations: Dict = {}

        for i, (epoch, _start) in enumerate(epochs):
            rate = max(epoch.mean_rate, 1e-9)
            result: Optional[SimulationResult] = None
            if self.initial_candidates:
                # Re-run the packing tournament at every re-pack epoch —
                # the winner can change as the popularity estimate drifts.
                allocation, result = self._pick_epoch_allocation(
                    epoch, rate, rng, pops, i
                )
            else:
                allocation = allocate(
                    self.catalog, self.policy, self.config, rate,
                    rng=rng, popularities=pops,
                )
            mapping = allocation.mapping(self.catalog.n)
            if mapping_prev is not None:
                self.moved_files.append(int(np.sum(mapping != mapping_prev)))
            mapping_prev = mapping
            if result is None:
                system = StorageSystem(self.catalog, mapping, self.config)
                result = system.run(epoch, label=f"{self.policy}@epoch{i}")
            self.epoch_results.append(result)

            total_energy += result.energy
            if result.response_times is not None:
                responses.append(result.response_times)
            else:
                # Streaming-metrics epoch: carry the bounded stats instead
                # of the (absent) response array.
                stats_parts.append(result.response_stats)
            epoch_energy.append(result.energy_per_disk)
            arrivals += result.arrivals
            completions += result.completions
            spinups += result.spinups
            spindowns += result.spindowns
            always_on += result.always_on_energy
            # Write allocation / re-packing can change the pool size between
            # epochs; report the widest pool the run ever used.
            max_disks = max(max_disks, result.num_disks)
            for state, t in result.state_durations.items():
                state_durations[state] = state_durations.get(state, 0.0) + t

            # Update popularity estimate from observed counts.
            counts = np.bincount(
                epoch.file_ids, minlength=self.catalog.n
            ).astype(float)
            if counts.sum() > 0:
                observed = counts / counts.sum()
                pops = (
                    self.smoothing * pops + (1.0 - self.smoothing) * observed
                )
                pops = pops / pops.sum()

        num_disks = max_disks or self.config.num_disks
        # Per-disk energy summed across epochs, padded to the widest pool
        # (disk i's total covers every epoch in which it existed).
        energy_per_disk = np.zeros(num_disks)
        for per_disk in epoch_energy:
            energy_per_disk[: per_disk.shape[0]] += per_disk

        return SimulationResult(
            algorithm=f"{self.policy}+reorg",
            duration=stream.duration,
            num_disks=num_disks,
            energy=total_energy,
            energy_per_disk=energy_per_disk,
            state_durations=state_durations,
            response_times=(
                None
                if stats_parts
                else np.concatenate(responses)
                if responses
                else np.empty(0)
            ),
            response_stats=(
                ResponseStats.merge(stats_parts) if stats_parts else None
            ),
            arrivals=arrivals,
            completions=completions,
            spinups=spinups,
            spindowns=spindowns,
            always_on_energy=always_on,
            extra={
                "epochs": float(len(epochs)),
                "mean_moved_files": (
                    float(np.mean(self.moved_files)) if self.moved_files else 0.0
                ),
                **(
                    {"chosen_policies": list(self.chosen_policies)}
                    if self.chosen_policies
                    else {}
                ),
            },
        )

    def _pick_epoch_allocation(self, epoch, rate: float, rng, pops, index: int):
        """Fan out one epoch's allocation candidates via the orchestrator.

        Each candidate policy is packaged as a :class:`SimTask` over the
        epoch's stream (with the current popularity estimate) and
        dispatched through the shared sweep runner (parallel when
        ``--workers``/``REPRO_SWEEP_WORKERS`` says so, and
        fingerprint-cached like any other grid point).  The energy-best
        packing (mean response breaks ties) wins; its allocation is
        recomputed locally — deterministically identical to the worker's —
        and its simulated result is reused as the epoch's result.
        """
        # Imported lazily: the orchestrator imports this module's
        # allocate/simulate helpers, so a top-level import would be a cycle.
        from repro.experiments.orchestrator import (
            InlineWorkload,
            SimTask,
            default_runner,
        )

        if rng is not None and not isinstance(rng, (int, np.integer)):
            raise ConfigError(
                "initial_candidates fan-out requires a picklable integer "
                "seed (or None) for rng, not a Generator instance"
            )
        if rng is None and "random" in self.initial_candidates:
            raise ConfigError(
                "candidate 'random' needs an integer rng seed so the "
                "fanned-out simulation and the continued mapping agree"
            )
        workload = InlineWorkload(
            sizes=self.catalog.sizes,
            popularities=pops,
            times=epoch.times,
            file_ids=epoch.file_ids,
            duration=epoch.duration,
            kinds=getattr(epoch, "kinds", None),
        )
        tasks = [
            SimTask(
                label=f"{candidate}@epoch{index}",
                workload=workload,
                config=self.config,
                policy=candidate,
                arrival_rate=rate,
                alloc_rng=None if rng is None else int(rng),
                key=candidate,
            )
            for candidate in self.initial_candidates
        ]
        by_key = default_runner().run_map(tasks)
        self.candidate_results.append(dict(by_key))
        if index == 0:
            self.initial_candidate_results = dict(by_key)

        def score(candidate: str) -> Tuple[float, float]:
            res = by_key[candidate]
            resp = res.mean_response
            return res.energy, resp if resp == resp else float("inf")

        best = min(self.initial_candidates, key=score)
        self.chosen_policies.append(best)
        if index == 0:
            self.chosen_initial_policy = best
        allocation = allocate(
            self.catalog, best, self.config, rate, rng=rng,
            popularities=pops,
        )
        return allocation, by_key[best]

    def _split(self, stream: RequestStream) -> List[Tuple[RequestStream, float]]:
        # Integer epoch count: float edge accumulation (np.arange) could emit
        # a sliver epoch when duration/interval lands near an integer, and a
        # zero-length final epoch crashes StorageSystem.run.  Sub-1e-9
        # overhangs are absorbed into the last epoch.  A subnormal (or NaN)
        # interval makes the count infinite (or NaN), which ``ceil`` cannot
        # take.
        epochs = stream.duration / self.interval
        if not math.isfinite(epochs):
            raise ConfigError(
                f"interval {self.interval!r} splits a {stream.duration!r} s "
                f"stream into {epochs} epochs; it must give a finite count"
            )
        n_epochs = max(1, int(math.ceil(epochs - 1e-9)))
        # A duck-typed mixed stream carries a per-request kind; epochs must
        # keep it, or every write would silently be simulated as a read
        # (and writes of new files would crash as unallocated reads).
        kinds = getattr(stream, "kinds", None)
        if kinds is not None:
            kinds = np.asarray(kinds)
            if kinds.shape != np.shape(stream.times):
                raise ConfigError(
                    "stream kinds must align with times to split into epochs"
                )
        out = []
        for i in range(n_epochs):
            start = i * self.interval
            last = i == n_epochs - 1
            end = stream.duration if last else (i + 1) * self.interval
            mask = stream.times >= start
            # RequestStream permits times[-1] == duration, so the final
            # epoch's upper bound is inclusive: a strict < would drop a
            # horizon request from every epoch, losing it from the access
            # statistics that drive re-packing and from epoch-length
            # conservation.  (The simulator still censors it at the cutoff,
            # exactly as a monolithic run over the whole stream would.)
            mask &= (stream.times <= end) if last else (stream.times < end)
            if kinds is not None:
                epoch = MixedRequestStream(
                    times=stream.times[mask] - start,
                    file_ids=stream.file_ids[mask],
                    kinds=kinds[mask],
                    duration=end - start,
                )
            else:
                epoch = RequestStream(
                    times=stream.times[mask] - start,
                    file_ids=stream.file_ids[mask],
                    duration=end - start,
                )
            out.append((epoch, start))
        return out
