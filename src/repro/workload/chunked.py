"""Chunked (out-of-core) workload streams.

The monolithic generators in this package materialize every arrival as one
NumPy array — fine for the paper's 10^5-10^7-request traces, impossible for
the datacenter-scale 10^8-10^9-request runs the roadmap targets.  This
module defines the **ChunkedStream protocol** the fast kernel streams over
in bounded memory, plus chunked constructors for each workload shape.

ChunkedStream protocol
----------------------
Any object with:

* ``duration`` — the simulation horizon in seconds (a plain float);
* ``iter_chunks()`` — an iterator of :class:`StreamChunk` batches whose
  ``times`` are sorted within each chunk and non-decreasing *across*
  chunks (the kernel validates both and reports violations).

Each ``iter_chunks()`` call must restart the stream from the beginning
(re-iterable): generators here re-seed a fresh RNG from a stored seed per
iteration, so the fast kernel, the event engine (which consumes the
per-request ``__iter__`` the classes also provide) and repeated runs all
see the identical request sequence.

Two kinds of chunked streams exist:

* :class:`ChunkedStreamView` — ``stream.chunks(n)`` on any array-backed
  :class:`~repro.workload.arrivals.RequestStream` /
  :class:`~repro.workload.mixed.MixedRequestStream`.  Slices of the same
  arrays: the chunked run is **bit-identical** to the monolithic one (the
  differential harness asserts this across chunk sizes).
* Windowed generators (:class:`ChunkedPoissonStream`,
  :class:`ChunkedDiurnalStream`, :class:`ChunkedNerscStream`,
  :class:`ChunkedMixedStream`) — the request process is synthesized one
  time-window at a time, so arbitrarily long horizons never materialize.
  These draw the *same process* as their monolithic counterparts (exact
  Poisson decompositions where possible, documented approximations for
  NERSC locality) but not the same sample path: seeds partition the
  horizon differently.

File ids come from an exact guide-table inverse CDF
(:class:`~repro.workload.sampling.PopularitySampler`), bit-identical to
``Generator.choice(n, size, p=p)`` on the same generator.  Each stream
builds its sampler once, so every window reuses one table, and bad
popularity weights raise :class:`~repro.errors.ConfigError` when the
stream is constructed.

File sizes remain catalog-indexed: the simulator reads ``sizes[file_id]``
from the (in-memory, O(n_files)) catalog, so chunks carry sizes only as an
optional convenience (:meth:`StreamChunk.with_sizes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
import numpy.typing as npt

from repro.disk.drive import READ, WRITE
from repro.errors import ConfigError
from repro.workload.catalog import FileCatalog
from repro.workload.diurnal import thin
from repro.workload.sampling import PopularitySampler

if TYPE_CHECKING:
    from repro.workload.mixed import MixedWorkloadParams
    from repro.workload.nersc import NerscTraceParams

__all__ = [
    "ChunkedDiurnalStream",
    "ChunkedMixedStream",
    "ChunkedNerscStream",
    "ChunkedPoissonStream",
    "ChunkedStreamView",
    "StreamChunk",
    "generate_mixed_workload_chunked",
]

#: Default number of requests per generated chunk.
DEFAULT_CHUNK_SIZE = 262_144

#: Anything `np.random.SeedSequence` accepts as entropy.  A ready
#: `Generator` is rejected at runtime (see `_SeededStream`), so it appears
#: here only to give that check a precise error message.
SeedLike = Union[
    None, int, Sequence[int], "np.random.SeedSequence", "np.random.Generator"
]

#: One per-request tuple the event-engine adapter yields:
#: ``(time, file_id)`` or ``(time, file_id, kind)``.
RequestTuple = Union[Tuple[float, int], Tuple[float, int, str]]


class SupportsIterChunks(Protocol):
    """The ChunkedStream protocol's structural core (see module docstring)."""

    def iter_chunks(self) -> Iterator["StreamChunk"]: ...


class ArrayBackedStream(Protocol):
    """What :class:`ChunkedStreamView` needs from its parent stream."""

    duration: float

    @property
    def times(self) -> Any: ...

    @property
    def file_ids(self) -> Any: ...

    @property
    def mean_rate(self) -> float: ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[Any]: ...


@dataclass
class StreamChunk:
    """One sorted batch of arrivals: ``(timestamps, file_ids, sizes, kinds)``.

    ``kinds`` is ``None`` for read-only streams; ``sizes`` is optional
    (the kernel resolves sizes through the catalog — see module docstring).
    """

    times: npt.NDArray[np.float64]
    file_ids: npt.NDArray[np.int64]
    kinds: Optional[npt.NDArray[Any]] = None
    sizes: Optional[npt.NDArray[np.float64]] = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.file_ids = np.asarray(self.file_ids, dtype=np.int64)
        if self.times.ndim != 1 or self.times.shape != self.file_ids.shape:
            raise ConfigError("chunk times and file_ids must be equal-length 1-D")
        if self.kinds is not None:
            self.kinds = np.asarray(self.kinds)
            if self.kinds.shape != self.times.shape:
                raise ConfigError("chunk kinds must align with times")
        if self.sizes is not None:
            self.sizes = np.asarray(self.sizes, dtype=float)
            if self.sizes.shape != self.times.shape:
                raise ConfigError("chunk sizes must align with times")
        if self.times.size and np.any(np.diff(self.times) < 0):
            raise ConfigError("chunk times must be non-decreasing")

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def with_sizes(self, catalog_sizes: npt.ArrayLike) -> "StreamChunk":
        """Copy of the chunk with ``sizes`` filled from a catalog array."""
        return replace(
            self, sizes=np.asarray(catalog_sizes, dtype=float)[self.file_ids]
        )


def _iter_requests(chunked: SupportsIterChunks) -> Iterator[RequestTuple]:
    """Per-request tuples from a chunked stream (event-engine adapter)."""
    for chunk in chunked.iter_chunks():
        if chunk.kinds is None:
            for t, f in zip(chunk.times, chunk.file_ids):
                yield float(t), int(f)
        else:
            for t, f, k in zip(chunk.times, chunk.file_ids, chunk.kinds):
                yield float(t), int(f), str(k)


def _check_chunk_size(chunk_size: "int | np.integer[Any]") -> int:
    if not isinstance(chunk_size, (int, np.integer)) or chunk_size < 1:
        raise ConfigError(
            f"chunk_size must be a positive integer, got {chunk_size!r}"
        )
    return int(chunk_size)


def _windows(
    duration: float, chunk_size: int, rate: float
) -> List[Tuple[float, float]]:
    """``[lo, hi)`` windows tiling ``[0, duration)``, each holding about
    ``chunk_size`` expected arrivals at ``rate`` (one window when the rate
    is 0, none for an empty horizon)."""
    if duration <= 0:
        return []
    width = chunk_size / rate if rate > 0 else duration
    n_windows = max(1, int(math.ceil(duration / width)))
    edges: List[float] = np.linspace(0.0, duration, n_windows + 1).tolist()
    return list(zip(edges[:-1], edges[1:]))


class _SeededStream:
    """Shared re-seeding machinery for the windowed generators."""

    def __init__(self, seed: SeedLike) -> None:
        if isinstance(seed, np.random.Generator):
            raise ConfigError(
                "chunked streams need a re-usable seed (int, SeedSequence or "
                "None), not a Generator: every iter_chunks() must replay the "
                "identical request sequence"
            )
        # Snapshot entropy now so seed=None is still deterministic across
        # repeated iterations of the *same* stream object.
        self._entropy = np.random.SeedSequence(seed).entropy

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self._entropy))

    def __iter__(self) -> Iterator[RequestTuple]:
        return _iter_requests(self)


class ChunkedStreamView:
    """Chunked view of an array-backed stream (``stream.chunks(n)``).

    Yields contiguous slices of the parent's arrays, so a chunked fast-kernel
    run over this view is bit-identical to the monolithic run over the
    parent.  Deliberately does **not** re-expose ``.times`` — that is how
    :meth:`repro.system.storage.StorageSystem.run` tells chunked streams
    apart from array-backed ones.
    """

    def __init__(self, stream: ArrayBackedStream, chunk_size: int) -> None:
        self.chunk_size = _check_chunk_size(chunk_size)
        self._stream = stream
        self.duration = float(stream.duration)

    def iter_chunks(self) -> Iterator[StreamChunk]:
        times = self._stream.times
        file_ids = self._stream.file_ids
        kinds = getattr(self._stream, "kinds", None)
        n = self.chunk_size
        for lo in range(0, int(times.shape[0]), n):
            yield StreamChunk(
                times=times[lo : lo + n],
                file_ids=file_ids[lo : lo + n],
                kinds=None if kinds is None else kinds[lo : lo + n],
            )

    def __len__(self) -> int:
        return len(self._stream)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._stream)

    @property
    def mean_rate(self) -> float:
        return self._stream.mean_rate


class ChunkedPoissonStream(_SeededStream):
    """Homogeneous Poisson arrivals synthesized window by window.

    Partitions ``[0, duration)`` into windows of ``~chunk_size`` expected
    arrivals and draws each window's count/placement independently — by the
    independent-increments property this *is* a Poisson process at ``rate``
    (not the same sample path as ``RequestStream.poisson``, which draws the
    whole horizon at once).  File ids are i.i.d. from ``popularities``.
    """

    def __init__(
        self,
        popularities: npt.ArrayLike,
        rate: float,
        duration: float,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        if rate < 0:
            raise ConfigError(f"rate must be >= 0, got {rate}")
        if duration < 0:
            raise ConfigError(f"duration must be >= 0, got {duration}")
        self.chunk_size = _check_chunk_size(chunk_size)
        self._sampler = PopularitySampler(popularities)
        self.rate = float(rate)
        self.duration = float(duration)

    @property
    def mean_rate(self) -> float:
        return self.rate

    def iter_chunks(self) -> Iterator[StreamChunk]:
        rng = self._rng()
        for lo, hi in _windows(self.duration, self.chunk_size, self.rate):
            n = int(rng.poisson(self.rate * (hi - lo)))
            if not n:
                continue
            times = rng.uniform(lo, hi, size=n)
            times.sort()
            ids = self._sampler.draw(n, rng)
            yield StreamChunk(times=times, file_ids=ids)


class ChunkedDiurnalStream(_SeededStream):
    """Nonhomogeneous (e.g. diurnal) Poisson arrivals, window by window.

    Windowed Lewis & Shedler thinning: each window draws a homogeneous
    proposal at ``peak_rate`` and keeps points with probability
    ``rate_fn(t)/peak_rate`` — again an exact decomposition of the
    nonhomogeneous process, so arbitrarily long diurnal horizons stream
    without ever materializing the proposal for the whole run.
    """

    def __init__(
        self,
        popularities: npt.ArrayLike,
        rate_fn: Callable[[float], float],
        peak_rate: float,
        duration: float,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        if peak_rate <= 0:
            raise ConfigError("peak_rate must be positive")
        if duration < 0:
            raise ConfigError(f"duration must be >= 0, got {duration}")
        self.chunk_size = _check_chunk_size(chunk_size)
        self._sampler = PopularitySampler(popularities)
        self.rate_fn = rate_fn
        self.peak_rate = float(peak_rate)
        self.duration = float(duration)

    def iter_chunks(self) -> Iterator[StreamChunk]:
        rng = self._rng()
        peak = self.peak_rate
        for lo, hi in _windows(self.duration, self.chunk_size, peak):
            n = int(rng.poisson(peak * (hi - lo)))
            if not n:
                continue
            times = rng.uniform(lo, hi, size=n)
            times.sort()
            times = thin(times, self.rate_fn, peak, rng)
            if not times.size:
                continue
            ids = self._sampler.draw(times.size, rng)
            yield StreamChunk(times=times, file_ids=ids)


class ChunkedMixedStream(_SeededStream):
    """Windowed read/write mixed stream over a pre-planned extended catalog.

    Built by :func:`generate_mixed_workload_chunked`, which draws the
    new-file writes **up front** (their count, sizes and arrival times) so
    the extended catalog and the ``-1`` mapping slots exist before the
    simulation starts — first-touch allocation needs the catalog fixed.
    The remaining traffic (reads + rewrites of existing files) is an
    independent Poisson process by the splitting property, synthesized
    window by window and time-merged with the planned new-file writes.
    """

    def __init__(
        self,
        popularities: npt.ArrayLike,
        other_rate: float,
        rewrite_prob: float,
        new_times: npt.ArrayLike,
        first_new_id: int,
        duration: float,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        self.chunk_size = _check_chunk_size(chunk_size)
        self._sampler = PopularitySampler(popularities)
        self.other_rate = float(other_rate)
        self.rewrite_prob = float(rewrite_prob)
        self._new_times = np.asarray(new_times, dtype=float)
        self._first_new_id = int(first_new_id)
        self.duration = float(duration)

    @property
    def n_new_files(self) -> int:
        return int(self._new_times.size)

    def iter_chunks(self) -> Iterator[StreamChunk]:
        rng = self._rng()
        total_rate = self.other_rate + self._new_times.size / max(
            self.duration, 1e-300
        )
        for lo, hi in _windows(self.duration, self.chunk_size, total_rate):
            n = int(rng.poisson(self.other_rate * (hi - lo)))
            times = rng.uniform(lo, hi, size=n)
            times.sort()
            ids = self._sampler.draw(n, rng)
            kinds = np.where(
                rng.uniform(size=n) < self.rewrite_prob, WRITE, READ
            )
            # Merge the pre-planned new-file writes that land in this window.
            nlo = int(np.searchsorted(self._new_times, lo, side="left"))
            nhi = int(np.searchsorted(self._new_times, hi, side="left"))
            if nhi > nlo:
                new_t = self._new_times[nlo:nhi]
                new_ids = self._first_new_id + np.arange(
                    nlo, nhi, dtype=np.int64
                )
                times = np.concatenate([times, new_t])
                order = np.argsort(times, kind="stable")
                times = times[order]
                ids = np.concatenate([ids, new_ids])[order]
                kinds = np.concatenate(
                    [kinds, np.full(nhi - nlo, WRITE, dtype=kinds.dtype)]
                )[order]
            if times.size:
                yield StreamChunk(times=times, file_ids=ids, kinds=kinds)


def generate_mixed_workload_chunked(
    catalog: FileCatalog,
    params: "MixedWorkloadParams",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Tuple[FileCatalog, ChunkedMixedStream]:
    """Chunked analogue of
    :func:`repro.workload.mixed.generate_mixed_workload`.

    Returns ``(extended_catalog, stream)`` with the same contract: the
    catalog gains one (practically zero-popularity) entry per new-file
    write, and those files' mapping slots should start at ``-1`` so the
    write-placement policy allocates them on first touch.  The Poisson
    splitting is exact: new-file writes at rate ``R*wf*nf`` are drawn up
    front, everything else streams at rate ``R*(1-wf*nf)`` with rewrite
    probability ``wf*(1-nf)/(1-wf*nf)``.
    """
    from repro.sim.rng import rng_from_seed

    rng = rng_from_seed(params.seed)
    n_existing = catalog.n
    p_new = params.write_fraction * params.new_file_fraction
    n_new = int(rng.poisson(params.arrival_rate * p_new * params.duration))
    new_times = np.sort(rng.uniform(0.0, params.duration, size=n_new))
    new_sizes = rng.choice(catalog.sizes, size=n_new, replace=True)

    if n_new:
        eps = 1e-15
        sizes = np.concatenate([catalog.sizes, new_sizes])
        pops = np.concatenate([catalog.popularities, np.full(n_new, eps)])
        pops = pops / pops.sum()
        extended = FileCatalog(sizes=sizes, popularities=pops)
    else:
        extended = catalog

    other_rate = params.arrival_rate * (1.0 - p_new)
    rewrite_prob = (
        params.write_fraction * (1.0 - params.new_file_fraction) / (1.0 - p_new)
        if p_new < 1.0
        else 0.0
    )
    stream = ChunkedMixedStream(
        popularities=catalog.popularities,
        other_rate=other_rate,
        rewrite_prob=rewrite_prob,
        new_times=new_times,
        first_new_id=n_existing,
        duration=params.duration,
        chunk_size=chunk_size,
        seed=None if params.seed is None else params.seed + 1,
    )
    return extended, stream


class ChunkedNerscStream(_SeededStream):
    """Windowed streaming approximation of the NERSC-like trace.

    The monolithic synthesizer (:func:`repro.workload.nersc.synthesize_nersc_trace`)
    is inherently global — batch sessions are carved over the whole horizon
    and repeats reference base arrival times — but its memory is dominated
    by the *request* axis, not the file axis.  This class keeps the exact
    O(n_files) parts (the calibrated size catalog, the session-structured
    one-request-per-file base arrivals) in memory and streams the
    request-proportional part (the Zipf-skewed repeats) window by window.

    Approximation, documented: a "local" repeat re-requests its file at
    ``base_time + Exp(repeat_delay)`` only when that lands inside the
    current window; otherwise it degrades to a uniform in-window repeat.
    Aggregate statistics (size/popularity distributions, rate, session
    bursts) match the monolithic trace; the exact temporal-locality mass
    is slightly diluted for windows much shorter than ``repeat_delay``.
    """

    def __init__(
        self,
        params: "Optional[NerscTraceParams]" = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        from repro.workload.nersc import (
            NerscTraceParams,
            _synthesize_base,
        )

        params = params if params is not None else NerscTraceParams()
        super().__init__(params.seed)
        self.params = params
        self.chunk_size = _check_chunk_size(chunk_size)
        self.duration = float(params.duration)
        base_rng = np.random.default_rng(
            np.random.SeedSequence(self._entropy)
        )
        sizes, base_times = _synthesize_base(params, base_rng)
        order = np.argsort(base_times, kind="stable")
        self._base_times_sorted = base_times[order]
        self._base_ids_sorted = order.astype(np.int64)
        self._base_times_by_id = base_times
        ranks = base_rng.permutation(params.n_files) + 1
        weights = ranks.astype(float) ** (-params.repeat_exponent)
        self._repeat_weights = weights / weights.sum()
        self._repeats = PopularitySampler(weights)
        expected = 1.0 + (
            params.n_requests - params.n_files
        ) * self._repeat_weights
        self.catalog = FileCatalog(
            sizes=sizes, popularities=expected / expected.sum()
        )

    def iter_chunks(self) -> Iterator[StreamChunk]:
        p = self.params
        # Independent stream for the per-window repeats (the base synthesis
        # consumed the head of the seed's stream in __init__).
        rng = np.random.default_rng(
            np.random.SeedSequence((self._entropy, 1))
        )
        n_extra = p.n_requests - p.n_files
        extra_rate = n_extra / self.duration if self.duration > 0 else 0.0
        total_rate = extra_rate + (
            p.n_files / self.duration if self.duration > 0 else 0.0
        )
        bt = self._base_times_sorted
        for lo, hi in _windows(self.duration, self.chunk_size, total_rate):
            last = hi >= self.duration
            blo = int(np.searchsorted(bt, lo, side="left"))
            bhi = (
                bt.size if last else int(np.searchsorted(bt, hi, side="left"))
            )
            base_t = bt[blo:bhi]
            base_ids = self._base_ids_sorted[blo:bhi]
            n_rep = int(rng.poisson(extra_rate * (hi - lo)))
            rep_ids = self._repeats.draw(n_rep, rng)
            rep_t = rng.uniform(lo, hi, size=n_rep)
            local = rng.uniform(size=n_rep) < p.repeat_locality
            if local.any():
                cand = self._base_times_by_id[rep_ids] + rng.exponential(
                    p.repeat_delay, size=n_rep
                )
                in_window = local & (cand >= lo) & (cand < hi)
                rep_t = np.where(in_window, cand, rep_t)
            times = np.concatenate([base_t, rep_t])
            ids = np.concatenate([base_ids, rep_ids])
            order = np.argsort(times, kind="stable")
            if times.size:
                yield StreamChunk(times=times[order], file_ids=ids[order])

    @property
    def mean_rate(self) -> float:
        return (
            self.params.n_requests / self.duration
            if self.duration > 0
            else 0.0
        )
