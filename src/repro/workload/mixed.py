"""Read/write mixed workloads (paper §6: "various mixes of read and write
requests").

Writes follow the paper's §1.1 energy-friendly policy at the dispatcher:
they are steered to an already-spinning disk with space when possible, and
their placement can be improved at the next reorganization.  This module
generates streams where a configurable fraction of requests are writes —
re-writes of existing files and appends of brand-new files (which enter the
catalog with zero popularity and an unallocated mapping slot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.disk.drive import READ, WRITE
from repro.errors import ConfigError
from repro.sim.rng import rng_from_seed
from repro.workload.arrivals import RequestStream, validate_stream_times
from repro.workload.catalog import FileCatalog
from repro.workload.sampling import PopularitySampler

__all__ = ["MixedRequestStream", "MixedWorkloadParams", "generate_mixed_workload"]


@dataclass
class MixedRequestStream:
    """A request stream whose items carry a read/write kind.

    Iterates as ``(time, file_id, kind)``; the dispatcher's
    :func:`~repro.system.dispatcher.drive_stream` accepts both 2- and
    3-tuples, so this is a drop-in replacement for
    :class:`~repro.workload.arrivals.RequestStream`.
    """

    times: np.ndarray
    file_ids: np.ndarray
    kinds: np.ndarray  # array of "read"/"write" strings
    duration: float

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.file_ids = np.asarray(self.file_ids, dtype=np.int64)
        self.kinds = np.asarray(self.kinds)
        if not (
            self.times.shape == self.file_ids.shape == self.kinds.shape
        ):
            raise ConfigError("times, file_ids and kinds must align")
        validate_stream_times(self.times, self.duration)

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def __iter__(self) -> Iterator[Tuple[float, int, str]]:
        for t, f, k in zip(self.times, self.file_ids, self.kinds):
            yield float(t), int(f), str(k)

    def chunks(self, chunk_size: int):
        """A chunked view of this stream (kinds included) — see
        :meth:`repro.workload.arrivals.RequestStream.chunks`."""
        from repro.workload.chunked import ChunkedStreamView

        return ChunkedStreamView(self, chunk_size)

    @property
    def mean_rate(self) -> float:
        """Empirical rate; ``0.0`` for empty streams (never ``NaN``),
        matching :attr:`repro.workload.arrivals.RequestStream.mean_rate`."""
        if not len(self):
            return 0.0
        return len(self) / self.duration if self.duration > 0 else float("nan")

    @property
    def write_fraction(self) -> float:
        if not len(self):
            return float("nan")
        return float(np.mean(self.kinds == WRITE))

    def reads_only(self) -> RequestStream:
        """Project out the reads as a plain RequestStream."""
        mask = self.kinds == READ
        return RequestStream(
            times=self.times[mask],
            file_ids=self.file_ids[mask],
            duration=self.duration,
        )


@dataclass(frozen=True)
class MixedWorkloadParams:
    """Knobs of the mixed read/write stream."""

    #: Fraction of requests that are writes.
    write_fraction: float = 0.2
    #: Of the writes, the fraction creating brand-new files (the rest
    #: rewrite existing ones in place).
    new_file_fraction: float = 0.5
    #: Size of newly written files is drawn from the existing catalog.
    arrival_rate: float = 1.0
    duration: float = 1_000.0
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if not 0 <= self.write_fraction <= 1:
            raise ConfigError("write_fraction must be in [0, 1]")
        if not 0 <= self.new_file_fraction <= 1:
            raise ConfigError("new_file_fraction must be in [0, 1]")
        if self.arrival_rate < 0 or self.duration <= 0:
            raise ConfigError("rate must be >= 0 and duration positive")


def generate_mixed_workload(
    catalog: FileCatalog, params: MixedWorkloadParams
) -> Tuple[FileCatalog, MixedRequestStream]:
    """Build a read/write stream over ``catalog``.

    Returns ``(extended_catalog, stream)``: the catalog gains one entry per
    new-file write (zero popularity — they are only written during this
    horizon), and the stream's file ids index the extended catalog.  Feed
    the extended catalog and a mapping with ``-1`` for the new files to the
    storage system; the dispatcher allocates them on first write.
    """
    rng = rng_from_seed(params.seed)
    n_existing = catalog.n

    count = int(rng.poisson(params.arrival_rate * params.duration))
    times = np.sort(rng.uniform(0.0, params.duration, size=count))
    is_write = rng.uniform(size=count) < params.write_fraction
    is_new = is_write & (rng.uniform(size=count) < params.new_file_fraction)

    n_new = int(is_new.sum())
    # New files take sizes resembling the existing population.
    new_sizes = rng.choice(catalog.sizes, size=n_new, replace=True)

    file_ids = np.empty(count, dtype=np.int64)
    old_mask = ~is_new
    file_ids[old_mask] = PopularitySampler(catalog.popularities).draw(
        int(old_mask.sum()), rng
    )
    file_ids[is_new] = n_existing + np.arange(n_new)

    kinds = np.where(is_write, WRITE, READ)

    if n_new:
        # Extended catalog: new files carry (practically) zero popularity.
        eps = 1e-15
        sizes = np.concatenate([catalog.sizes, new_sizes])
        pops = np.concatenate(
            [catalog.popularities, np.full(n_new, eps)]
        )
        pops = pops / pops.sum()
        extended = FileCatalog(sizes=sizes, popularities=pops)
    else:
        extended = catalog

    stream = MixedRequestStream(
        times=times, file_ids=file_ids, kinds=kinds,
        duration=params.duration,
    )
    return extended, stream
