"""Parallel sweep orchestration with per-point result caching.

Every figure of the paper is a grid of near-identical simulations (rate x
load, threshold x config, ...).  The :class:`SweepRunner` turns such grids
into lists of self-contained, picklable :class:`SimTask` descriptions and

* skips points whose result is already cached (in memory, and optionally on
  disk) under a fingerprint of the full task — config, workload parameters
  incl. the stream seed, policy, mapping and horizon;
* deduplicates identical points within one batch;
* fans the remaining points across ``concurrent.futures``
  ``ProcessPoolExecutor`` workers (serially when only one worker is
  configured or only one point is pending), shipping each distinct
  :class:`InlineWorkload` to the pool **once** via the executor
  initializer instead of pickling its arrays into every task.

Workers rebuild the workload from its parameters (synthetic and NERSC
specs) or from inline arrays (:class:`InlineWorkload`, optionally carrying
read/write ``kinds``), allocate when a ``policy`` is given (recording the
allocation's disk count in ``result.extra["alloc_disks"]``) or simulate a
prebuilt ``mapping`` directly.

All grid-shaped experiment harnesses (``rate_sweep``, ``trace_sweep``,
``fig4_tradeoff``, ``groupsize_sweep``, ``sensitivity``, the simulation
``ablations``) route their grids through the shared :func:`default_runner`;
``python -m repro run ... --workers N [--engine fast] [--sweep-cache DIR]``
calls :func:`configure` to size the pool, optionally force the batched
kernel, and point the disk-backed result cache somewhere else.

Defaults are environment-driven: the worker count reads
``REPRO_SWEEP_WORKERS`` and falls back to serial execution (multi-process
fan-out is opt-in), while the *shared* runner persists results under
``REPRO_SWEEP_CACHE`` (default ``~/.cache/repro/sweeps``; set it to
``off`` to disable) so repeated CLI invocations of the same grid reuse
each other's points across sessions.  Fingerprints are salted with
:data:`RESULT_SCHEMA_VERSION` and the package version; bump the schema
constant whenever simulation semantics change within a release so
persisted results from the older simulator become misses.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import tempfile
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.system.config import StorageConfig
from repro.system.metrics import SimulationResult
from repro.system.runner import allocate, simulate
from repro.system.storage import StorageSystem
from repro.workload.arrivals import RequestStream
from repro.workload.catalog import FileCatalog
from repro.workload.generator import SyntheticWorkloadParams, generate_workload
from repro.workload.mixed import MixedRequestStream
from repro.workload.nersc import NerscTraceParams, synthesize_nersc_trace

__all__ = [
    "InlineWorkload",
    "SimTask",
    "SweepRunner",
    "SweepStats",
    "TaskProfile",
    "configure",
    "default_cache_dir",
    "default_runner",
    "materialize_workload",
    "task_fingerprint",
]


@dataclass(frozen=True, eq=False)
class InlineWorkload:
    """A fully materialized (catalog, stream) pair shipped to workers.

    Used when the workload is expensive or stateful to synthesize (e.g. a
    shared trace whose allocations were computed up front).  When several
    tasks of one batch share the instance it is pickled to each worker
    process exactly once, through the pool initializer.  An optional
    ``kinds`` array (``"read"``/``"write"`` per request) materializes as a
    :class:`~repro.workload.mixed.MixedRequestStream`, so mixed
    read/write grid points are first-class sweep citizens.
    """

    sizes: np.ndarray
    popularities: np.ndarray
    times: np.ndarray
    file_ids: np.ndarray
    duration: float
    kinds: Optional[np.ndarray] = None

    def content_digest(self) -> str:
        """Digest of the arrays, computed once and cached on the instance.

        Grids embed the same inline workload in every task; hashing the
        (potentially multi-megabyte) arrays once instead of per task keeps
        :func:`task_fingerprint` cheap.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            digest = hashlib.sha256()
            arrays = [self.sizes, self.popularities, self.times, self.file_ids]
            if self.kinds is not None:
                arrays.append(np.asarray(self.kinds))
            for arr in arrays:
                arr = np.ascontiguousarray(arr)
                digest.update(arr.dtype.str.encode())
                digest.update(str(arr.shape).encode())
                digest.update(arr.tobytes())
            digest.update(repr(float(self.duration)).encode())
            digest.update(b"mixed" if self.kinds is not None else b"reads")
            cached = digest.hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached


#: Workload descriptions a worker can materialize on its own.
WorkloadSpec = Union[SyntheticWorkloadParams, NerscTraceParams, InlineWorkload]


@dataclass(frozen=True)
class _SharedWorkloadRef:
    """Stand-in for an :class:`InlineWorkload` installed in the worker.

    The pool initializer ships each distinct inline workload's arrays to
    every worker exactly once; tasks submitted to the pool then carry only
    this digest reference instead of re-pickling megabytes per grid point.
    Fingerprints are computed on the original tasks, so cache keys are
    unaffected by the substitution.
    """

    digest: str


#: Per-process registry the pool initializer fills (worker side).
_SHARED_WORKLOADS: Dict[str, InlineWorkload] = {}


def _install_shared_workloads(payload: Dict[str, InlineWorkload]) -> None:
    """Executor initializer: register the batch's inline workloads."""
    _SHARED_WORKLOADS.update(payload)


@dataclass(frozen=True, eq=False)
class SimTask:
    """One self-contained grid point: workload + placement + config.

    Exactly one of ``policy`` (allocate inside the worker) or ``mapping``
    (simulate a prebuilt file->disk array) must be set.  ``key`` is an
    optional caller-side grid coordinate echoed by
    :meth:`SweepRunner.run_map`.
    """

    label: str
    workload: WorkloadSpec
    config: StorageConfig
    policy: Optional[str] = None
    mapping: Optional[np.ndarray] = None
    arrival_rate: Optional[float] = None
    num_disks: Optional[int] = None
    duration: Optional[float] = None
    alloc_rng: Optional[int] = None
    key: Optional[Hashable] = None

    def __post_init__(self) -> None:
        if (self.policy is None) == (self.mapping is None):
            raise ConfigError(
                "exactly one of policy/mapping must be set on a SimTask"
            )


def _canon(obj: Any) -> Any:
    """Canonical, hashable-by-pickle form of task components."""
    if isinstance(obj, InlineWorkload):
        return ("InlineWorkload", obj.content_digest())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, _canon(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.dtype.str, obj.tobytes())
    return obj


#: Salt mixed into every task fingerprint.  Bump this whenever simulation
#: *semantics* change within a release (kernel behavior, dispatcher
#: policy, metric definitions), so disk-cached results computed by an
#: older simulator are treated as misses instead of being silently served.
#: The package version is mixed in automatically, so releases always
#: invalidate regardless of discipline here.
#: v3: pluggable write-placement registry (``StorageConfig.write_policy``
#: salts fingerprints via the config dataclass) + ``final_mapping`` on
#: :class:`SimulationResult`.
#: v4: online DPM control subsystem (``StorageConfig.dpm_policy`` /
#: ``control_interval`` / ``slo_target`` / ``slo_percentile`` salt
#: fingerprints via the config dataclass; controlled runs carry
#: per-interval traces in ``extra["dpm"]``) + the ``hottest_spinning``
#: write-placement policy.
#: v5: multi-state DPM ladders (``StorageConfig.dpm_ladder`` salts
#: fingerprints via the config dataclass; ladder runs key
#: ``state_durations`` by timeline label) + the reworked ladder-drive
#: descent/wake energy accounting (now :class:`~repro.disk.drive.DiskDrive`
#: with a ladder).
#: v6: out-of-core streaming (``StorageConfig.metrics_mode`` /
#: ``chunk_size`` salt fingerprints via the config dataclass; streaming
#: results carry ``response_stats`` instead of ``response_times``) + the
#: unified chunked fast-kernel core.
#: v8: slack-aware request scheduling (``StorageConfig.scheduler`` /
#: ``scheduler_params`` salt fingerprints via the config dataclass;
#: scheduled runs hold requests back and measure response from the
#: original arrival).
#: v9: ``StorageConfig.engine`` defaults to ``"fast"``, so a config built
#: without naming its engine now runs the batched kernel.
RESULT_SCHEMA_VERSION = 9


def task_fingerprint(task: SimTask) -> str:
    """Stable hex digest identifying a task's simulation inputs.

    Covers everything that shapes the result — config, workload parameters
    (incl. the stream seed), policy/mapping, horizon, the label the result
    is reported under — plus :data:`RESULT_SCHEMA_VERSION` and the package
    version, so persisted results do not survive semantic changes to the
    simulator.  The caller-side ``key`` is presentation only and excluded,
    so regrouping a grid does not invalidate its cache.
    """
    from repro import __version__

    payload = pickle.dumps(
        (
            RESULT_SCHEMA_VERSION,
            __version__,
            _canon(dataclasses.replace(task, key=None)),
        ),
        protocol=4,
    )
    return hashlib.sha256(payload).hexdigest()


def materialize_workload(
    workload: WorkloadSpec,
) -> Tuple[FileCatalog, RequestStream]:
    """Build (catalog, stream) from a workload spec.

    Synthesized workloads (synthetic/NERSC params) are cached per process,
    so a grid sharing one spec generates it once, not once per task.
    Experiment harnesses that also need the workload outside the sweep
    (e.g. for analytic overlays) should call this instead of synthesizing
    their own copy.  An :class:`InlineWorkload` is trivial array wrapping
    and is built directly — caching it would only pin duplicate array
    copies (unpickled worker instances hash by identity and never hit).
    """
    if isinstance(workload, _SharedWorkloadRef):
        try:
            workload = _SHARED_WORKLOADS[workload.digest]
        except KeyError:
            raise SimulationError(
                f"shared workload {workload.digest[:12]}… was not installed "
                "in this process (pool initializer missing?)"
            ) from None
    if isinstance(workload, InlineWorkload):
        catalog = FileCatalog(
            sizes=workload.sizes, popularities=workload.popularities
        )
        if workload.kinds is not None:
            return catalog, MixedRequestStream(
                times=workload.times,
                file_ids=workload.file_ids,
                kinds=workload.kinds,
                duration=workload.duration,
            )
        stream = RequestStream(
            times=workload.times,
            file_ids=workload.file_ids,
            duration=workload.duration,
        )
        return catalog, stream
    return _synthesize_cached(workload)


# Synthetic/NERSC params hash by value (frozen dataclasses), so the cache
# hits whenever grid points share a spec — even across separate run() calls.
@functools.lru_cache(maxsize=8)
def _synthesize_cached(
    workload: WorkloadSpec,
) -> Tuple[FileCatalog, RequestStream]:
    if isinstance(workload, SyntheticWorkloadParams):
        built = generate_workload(workload)
        return built.catalog, built.stream
    if isinstance(workload, NerscTraceParams):
        trace = synthesize_nersc_trace(workload)
        return trace.catalog, trace.stream
    raise ConfigError(f"unsupported workload spec {type(workload).__name__}")


def _execute_task_profiled(
    task: SimTask,
) -> Tuple[SimulationResult, Tuple[float, float, int]]:
    """:func:`_execute_task` plus ``(start, end, pid)`` wall-clock profile.

    Wall-clock reads live here — strictly in the orchestrator layer, never
    in the simulation trees (reprolint R004) — and use ``time.time()``
    rather than a monotonic clock because the timestamps must be
    comparable across pool worker processes.
    """
    t0 = time.time()
    result = _execute_task(task)
    return result, (t0, time.time(), os.getpid())


def _execute_task(task: SimTask) -> SimulationResult:
    """Run one grid point (module-level so ProcessPoolExecutor can pickle)."""
    catalog, stream = materialize_workload(task.workload)
    rate = (
        task.arrival_rate
        if task.arrival_rate is not None
        else stream.mean_rate
    )
    if task.policy is not None:
        allocation = allocate(
            catalog,
            task.policy,
            task.config,
            rate,
            rng=task.alloc_rng,
            num_disks=task.num_disks,
        )
        result = simulate(
            catalog,
            stream,
            allocation,
            task.config,
            num_disks=task.num_disks,
            duration=task.duration,
            label=task.label,
        )
        result.extra["alloc_disks"] = float(allocation.num_disks)
        return result
    mapping = np.asarray(task.mapping, dtype=np.int64)
    num_disks = task.num_disks
    if num_disks is not None and mapping.size:
        num_disks = max(num_disks, int(mapping.max()) + 1)
    system = StorageSystem(catalog, mapping, task.config, num_disks=num_disks)
    return system.run(stream, duration=task.duration, label=task.label)


def _resolve_workers(max_workers: Optional[int]) -> int:
    if max_workers is not None:
        return max(1, int(max_workers))
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if env:
        return max(1, int(env))
    # Multi-process fan-out is opt-in (--workers / REPRO_SWEEP_WORKERS):
    # spawning pools by default would re-execute unguarded user scripts on
    # spawn-start platforms and surprise library callers.
    return 1


#: ``REPRO_SWEEP_CACHE`` / ``--sweep-cache`` values that disable the
#: disk-backed result cache (case-insensitive; shared with the CLI).
CACHE_OFF_TOKENS = ("", "0", "off", "none", "disabled")


def resolve_cache_dir(value: Union[str, Path]) -> Optional[Path]:
    """Turn a user-supplied cache location into a path (or ``None``).

    One resolver for both ``REPRO_SWEEP_CACHE`` and the CLI's
    ``--sweep-cache``: off-tokens (:data:`CACHE_OFF_TOKENS`) disable the
    disk cache, anything else is a directory with ``~`` expanded.
    """
    if isinstance(value, str):
        if value.strip().lower() in CACHE_OFF_TOKENS:
            return None
        return Path(value).expanduser()
    return value


def default_cache_dir() -> Optional[Path]:
    """Where the *shared* runner persists sweep results across sessions.

    ``REPRO_SWEEP_CACHE`` overrides the location (set it to ``off``/``0``/
    ``none`` to disable persistence entirely); otherwise results land under
    ``$XDG_CACHE_HOME/repro/sweeps`` (``~/.cache/repro/sweeps``).  Only
    :func:`default_runner`/:func:`configure` apply this default —
    constructing a :class:`SweepRunner` directly still opts into disk
    caching explicitly via ``cache_dir``.
    """
    env = os.environ.get("REPRO_SWEEP_CACHE")
    if env is not None:
        return resolve_cache_dir(env)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "repro" / "sweeps"


@dataclass
class TaskProfile:
    """Wall-clock profile of one executed grid point.

    ``started`` is the offset (seconds) from the sweep's start, so
    profiles from different worker processes share one time base;
    ``wall`` is the task's own elapsed wall time on its worker.
    """

    label: str
    fingerprint: str
    started: float
    wall: float
    pid: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "fingerprint": self.fingerprint,
            "started_s": self.started,
            "wall_s": self.wall,
            "pid": self.pid,
        }


@dataclass
class SweepStats:
    """What one :meth:`SweepRunner.run` call computed vs reused.

    Reset at the start of every ``run()`` so multi-sweep sessions report
    per-sweep numbers, not accumulated stale counts; per-run snapshots
    pile up on :attr:`SweepRunner.history` for cross-sweep reporting.
    ``cached`` splits into ``memory_hits`` (this runner already held the
    result) and ``disk_hits`` (revived from the persistent cache).
    """

    executed: int = 0
    cached: int = 0
    deduplicated: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    elapsed: float = 0.0
    profiles: List[TaskProfile] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.executed + self.cached + self.deduplicated

    def reset(self) -> None:
        self.executed = 0
        self.cached = 0
        self.deduplicated = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.elapsed = 0.0
        self.profiles = []

    def summary_line(self) -> str:
        """The one-line sweep summary the CLI prints under ``--verbose``."""
        return (
            f"sweep: {self.total} tasks — {self.executed} executed, "
            f"{self.cached} cached ({self.memory_hits} memory / "
            f"{self.disk_hits} disk), {self.deduplicated} deduplicated "
            f"in {self.elapsed:.2f}s"
        )

    def worker_occupancy(self) -> Dict[int, float]:
        """Busy wall-seconds per worker pid (from the executed profiles)."""
        busy: Dict[int, float] = {}
        for profile in self.profiles:
            busy[profile.pid] = busy.get(profile.pid, 0.0) + profile.wall
        return busy

    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (profiles included) for manifests/exports."""
        return {
            "executed": self.executed,
            "cached": self.cached,
            "deduplicated": self.deduplicated,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "elapsed_s": self.elapsed,
            "profiles": [p.as_dict() for p in self.profiles],
        }


class SweepRunner:
    """Fans grids of :class:`SimTask` across processes with caching.

    Parameters
    ----------
    max_workers:
        Process pool size; ``None`` reads ``REPRO_SWEEP_WORKERS`` and falls
        back to serial execution (fan-out is opt-in).
    engine:
        When set (``"event"``/``"fast"``), override each task's
        ``config.engine`` — ``"fast"`` is applied to every known workload
        spec (the batched kernel covers writes and shared caches; see the
        coverage matrix in :mod:`repro.sim.fastkernel`).
    cache_dir:
        Optional directory for persistent pickled results, keyed by
        :func:`task_fingerprint`, surviving across processes and sessions.
        The shared :func:`default_runner` fills this from
        :func:`default_cache_dir`; direct constructions default to no disk
        cache.
    chunk_size:
        When set, override each task's ``config.chunk_size`` so fast-engine
        sweep points run out-of-core through the chunked kernel (the CLI's
        ``--chunk-size``).  Results are bit-identical to monolithic runs
        (the differential harness's chunked axis enforces it), so the
        fingerprint still salts on the config — a chunked sweep and a
        monolithic sweep are distinct cache entries by design.
    verbose:
        Print :meth:`SweepStats.summary_line` after every ``run()`` (the
        CLI's ``--verbose``).

    Each ``run()`` resets :attr:`stats` and appends a finished snapshot
    (with per-task :class:`TaskProfile` records) to :attr:`history`; with
    a ``cache_dir`` it also writes a JSON run manifest — fingerprints,
    seeds, :data:`RESULT_SCHEMA_VERSION`, timings — under
    ``cache_dir/manifests/`` (path kept on :attr:`last_manifest`).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        engine: Optional[str] = None,
        cache_dir: Union[None, str, Path] = None,
        chunk_size: Optional[int] = None,
        verbose: bool = False,
    ) -> None:
        if engine is not None and engine not in ("event", "fast"):
            raise ConfigError(
                f"engine must be 'event' or 'fast', got {engine!r}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError(
                f"chunk_size must be a positive integer, got {chunk_size!r}"
            )
        self.max_workers = _resolve_workers(max_workers)
        self.engine = engine
        self.chunk_size = chunk_size
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.verbose = bool(verbose)
        self._memory: Dict[str, SimulationResult] = {}
        self.stats = SweepStats()
        self.history: List[SweepStats] = []
        self.last_manifest: Optional[Path] = None

    # -- engine + cache plumbing ---------------------------------------------

    def _with_engine(self, task: SimTask) -> SimTask:
        overrides: Dict[str, Any] = {}
        if (
            self.chunk_size is not None
            and task.config.chunk_size != self.chunk_size
        ):
            overrides["chunk_size"] = self.chunk_size
        if self.engine is not None and task.config.engine != self.engine:
            apply_engine = True
            if self.engine == "fast":
                # Every known workload spec materializes an array-backed
                # stream — the only thing the fast kernel still cannot
                # express (writes and shared caches run on it).  Leave
                # unknown future specs alone rather than risk a mid-sweep
                # ConfigError.
                apply_engine = isinstance(
                    task.workload,
                    (SyntheticWorkloadParams, NerscTraceParams, InlineWorkload),
                )
            if apply_engine:
                overrides["engine"] = self.engine
        if not overrides:
            return task
        return dataclasses.replace(
            task, config=task.config.with_overrides(**overrides)
        )

    def _cache_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.pkl"

    def _lookup(self, key: str) -> Optional[SimulationResult]:
        hit = self._memory.get(key)
        if hit is not None:
            self.stats.memory_hits += 1
            return hit
        path = self._cache_path(key)
        if path is not None and path.exists():
            try:
                with path.open("rb") as fh:
                    result = pickle.load(fh)
            except Exception:
                # A truncated/corrupt entry (e.g. a crashed writer) is a
                # miss, not a fatal error; it will be rewritten below.
                return None
            self._memory[key] = result
            self.stats.disk_hits += 1
            return result
        return None

    def _store(self, key: str, result: SimulationResult) -> None:
        self._memory[key] = result
        path = self._cache_path(key)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Unique temp name per writer: concurrent sessions sharing the
            # cache_dir must not interleave bytes in one temp file.  The
            # atomic replace makes the last complete writer win.
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:16]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(result, fh, protocol=4)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

    # -- execution -------------------------------------------------------------

    def run(self, tasks: Sequence[SimTask]) -> List[SimulationResult]:
        """Execute (or fetch) every task; results in task order."""
        self.stats.reset()
        t_sweep = time.time()
        tasks = [self._with_engine(t) for t in tasks]
        keys = [task_fingerprint(t) for t in tasks]
        results: List[Optional[SimulationResult]] = [None] * len(tasks)

        fresh: List[Tuple[str, SimTask]] = []
        seen: Dict[str, int] = {}
        for i, (task, key) in enumerate(zip(tasks, keys)):
            cached = self._lookup(key)
            if cached is not None:
                results[i] = cached
                self.stats.cached += 1
            elif key in seen:
                self.stats.deduplicated += 1
            else:
                seen[key] = i
                fresh.append((key, task))

        if fresh:
            workers = min(self.max_workers, len(fresh))
            if workers <= 1:
                outputs = [_execute_task_profiled(task) for _, task in fresh]
            else:
                # Ship each distinct inline workload once per worker (via
                # the pool initializer) and submit lightweight digest refs
                # instead of re-pickling the arrays into every task.
                shared: Dict[str, InlineWorkload] = {}
                submit: List[SimTask] = []
                for _, task in fresh:
                    workload = task.workload
                    if isinstance(workload, InlineWorkload):
                        digest = workload.content_digest()
                        shared[digest] = workload
                        task = dataclasses.replace(
                            task, workload=_SharedWorkloadRef(digest)
                        )
                    submit.append(task)
                pool_kwargs: Dict[str, Any] = {"max_workers": workers}
                if shared:
                    pool_kwargs["initializer"] = _install_shared_workloads
                    pool_kwargs["initargs"] = (shared,)
                with ProcessPoolExecutor(**pool_kwargs) as pool:
                    outputs = list(pool.map(_execute_task_profiled, submit))
            for (key, task), (result, (t0, t1, pid)) in zip(fresh, outputs):
                self._store(key, result)
                self.stats.executed += 1
                self.stats.profiles.append(
                    TaskProfile(
                        label=task.label,
                        fingerprint=key,
                        started=max(0.0, t0 - t_sweep),
                        wall=t1 - t0,
                        pid=pid,
                    )
                )

        for i, key in enumerate(keys):
            if results[i] is None:
                results[i] = self._memory[key]
        self.stats.elapsed = time.time() - t_sweep
        self.history.append(dataclasses.replace(
            self.stats, profiles=list(self.stats.profiles)
        ))
        self._write_manifest(tasks, keys)
        if self.verbose:
            print(self.stats.summary_line())
        return results  # type: ignore[return-value]

    def run_map(
        self, tasks: Sequence[SimTask]
    ) -> Dict[Hashable, SimulationResult]:
        """Like :meth:`run`, keyed by each task's ``key`` (index fallback).

        Duplicate keys collapse to one entry (the last task wins); a
        :class:`RuntimeWarning` flags the dropped results rather than
        losing them silently.
        """
        results = self.run(tasks)
        by_key: Dict[Hashable, SimulationResult] = {}
        dupes: List[Hashable] = []
        for i, (task, result) in enumerate(zip(tasks, results)):
            key = task.key if task.key is not None else i
            if key in by_key:
                dupes.append(key)
            by_key[key] = result
        if dupes:
            warnings.warn(
                f"run_map: {len(dupes)} duplicate task key(s) "
                f"(e.g. {dupes[0]!r}) — earlier results were overwritten; "
                "give grid points distinct keys to keep every result",
                RuntimeWarning,
                stacklevel=2,
            )
        return by_key

    # -- observability exports ---------------------------------------------------

    def _write_manifest(
        self, tasks: Sequence[SimTask], keys: Sequence[str]
    ) -> None:
        """Persist the sweep's run manifest next to the result cache.

        One JSON file per distinct grid (named by a digest of the task
        fingerprints) recording what was run, from which inputs, under
        which schema version, and how long it took — enough to audit a
        figure's provenance without re-running anything.  Skipped when
        the runner has no ``cache_dir`` (nothing persists anyway).
        """
        self.last_manifest = None
        if self.cache_dir is None or not tasks:
            return
        digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]
        path = self.cache_dir / "manifests" / f"sweep-{digest}.json"
        payload = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "created_unix": time.time(),
            "elapsed_s": self.stats.elapsed,
            "workers": self.max_workers,
            "engine": self.engine,
            "chunk_size": self.chunk_size,
            "stats": self.stats.as_dict(),
            "tasks": [
                {
                    "label": task.label,
                    "fingerprint": key,
                    "seed": getattr(task.workload, "seed", None),
                }
                for task, key in zip(tasks, keys)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".sweep-{digest}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, indent=2, default=str)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.last_manifest = path

    def write_trace(self, path: Union[str, Path]) -> Path:
        """Export all recorded task profiles as a Chrome trace (wall clock).

        One ``X`` (complete) event per executed task, grouped by worker
        pid — load in Perfetto/``chrome://tracing`` to see the sweep's
        worker occupancy timeline.
        """
        from repro.obs.trace import sweep_chrome_trace, write_trace

        profiles = [p for stats in self.history for p in stats.profiles]
        return write_trace(sweep_chrome_trace(profiles), path)

    def write_metrics(self, path: Union[str, Path]) -> Path:
        """Export the per-run sweep stats as plain JSON."""
        path = Path(path)
        totals = SweepStats()
        for stats in self.history:
            totals.executed += stats.executed
            totals.cached += stats.cached
            totals.deduplicated += stats.deduplicated
            totals.memory_hits += stats.memory_hits
            totals.disk_hits += stats.disk_hits
            totals.elapsed += stats.elapsed
        payload = {
            "version": 1,
            "runs": [stats.as_dict() for stats in self.history],
            "totals": {
                k: v
                for k, v in totals.as_dict().items()
                if k != "profiles"
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(payload, fh, indent=2)
        return path

    def profile_report(self) -> str:
        """Human-readable per-task wall times and worker occupancy."""
        lines: List[str] = []
        for n, stats in enumerate(self.history):
            lines.append(f"run {n}: {stats.summary_line()}")
            for profile in sorted(
                stats.profiles, key=lambda p: p.wall, reverse=True
            ):
                lines.append(
                    f"  {profile.wall:8.3f}s  pid {profile.pid}  "
                    f"+{profile.started:.3f}s  {profile.label}"
                )
            occupancy = stats.worker_occupancy()
            if occupancy and stats.elapsed > 0:
                busy = ", ".join(
                    f"pid {pid}: {seconds / stats.elapsed:.0%}"
                    for pid, seconds in sorted(occupancy.items())
                )
                lines.append(f"  occupancy: {busy}")
        return "\n".join(lines) if lines else "no sweeps recorded"


_DEFAULT: Optional[SweepRunner] = None

#: Sentinel for :func:`configure`'s ``cache_dir``: resolve via
#: :func:`default_cache_dir` (env override, else ``~/.cache/repro/sweeps``).
#: A unique object, not a string, so a real directory literally named
#: ``auto`` cannot collide with it.
AUTO_CACHE: object = object()


def default_runner() -> SweepRunner:
    """The process-wide runner the experiment harnesses share.

    Created lazily with the disk-backed :func:`default_cache_dir`, so CLI
    runs of the same grid reuse each other's points across sessions.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SweepRunner(cache_dir=default_cache_dir())
    return _DEFAULT


def configure(
    max_workers: Optional[int] = None,
    engine: Optional[str] = None,
    cache_dir: Union[None, str, Path, object] = AUTO_CACHE,
    chunk_size: Optional[int] = None,
    verbose: bool = False,
) -> SweepRunner:
    """Replace the shared runner (used by the CLI's ``--workers``,
    ``--engine``, ``--sweep-cache``, ``--chunk-size`` and ``--verbose``
    flags).

    ``cache_dir`` accepts a directory, ``None`` (no disk cache), or the
    default :data:`AUTO_CACHE` sentinel (resolve via
    :func:`default_cache_dir`).
    """
    global _DEFAULT
    if cache_dir is AUTO_CACHE:
        cache_dir = default_cache_dir()
    _DEFAULT = SweepRunner(
        max_workers=max_workers,
        engine=engine,
        cache_dir=cache_dir,
        chunk_size=chunk_size,
        verbose=verbose,
    )
    return _DEFAULT
