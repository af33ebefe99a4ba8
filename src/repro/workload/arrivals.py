"""Request arrival processes and the request-stream container.

Arrivals are synthesized vectorized (single ``rng`` draws for the whole
stream) per the hpc-parallel guidance: no per-request Python-level RNG calls.
File ids come from an exact guide-table inverse CDF
(:class:`~repro.workload.sampling.PopularitySampler`), bit-identical to
``Generator.choice(n, size, p=p)`` on the same generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.sim.rng import rng_from_seed
from repro.workload.sampling import PopularitySampler

__all__ = [
    "RequestStream",
    "poisson_arrival_times",
    "sample_file_ids",
    "validate_stream_times",
]


def poisson_arrival_times(rate: float, duration: float, rng=None) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on ``[0, duration)``.

    Draws ``N ~ Poisson(rate * duration)`` then places the N points
    uniformly (exactly equivalent to exponential gaps, but vectorized).
    """
    if rate < 0:
        raise ConfigError(f"rate must be >= 0, got {rate}")
    if duration < 0:
        raise ConfigError(f"duration must be >= 0, got {duration}")
    rng = rng_from_seed(rng)
    n = int(rng.poisson(rate * duration))
    times = rng.uniform(0.0, duration, size=n)
    times.sort()
    return times


def sample_file_ids(popularities: np.ndarray, count: int, rng=None) -> np.ndarray:
    """Draw ``count`` file indices i.i.d. from the popularity distribution.

    Bit-identical to ``rng.choice(n, size=count, p=p / p.sum())``; bad
    weights raise :class:`~repro.errors.ConfigError` (see
    :class:`~repro.workload.sampling.PopularitySampler`).
    """
    return PopularitySampler(popularities).draw(count, rng_from_seed(rng))


def validate_stream_times(times: np.ndarray, duration: float) -> None:
    """Check a stream's arrival times against its horizon.

    Times must be finite, non-negative and non-decreasing, and the
    duration finite and at least the last arrival.  NaN fails every
    ordering comparison, so it is rejected explicitly rather than
    slipping through ``diff < 0``.
    """
    if not np.isfinite(duration):
        raise ConfigError(f"stream duration must be finite, got {duration}")
    if not times.size:
        return
    if not np.isfinite(times).all():
        bad = int(np.flatnonzero(~np.isfinite(times))[0])
        raise ConfigError(
            f"request times must be finite: time {bad} is {times[bad]}"
        )
    if np.any(np.diff(times) < 0):
        raise ConfigError("request times must be non-decreasing")
    if times[0] < 0:
        raise ConfigError("request times must be non-negative")
    if duration < times[-1]:
        raise ConfigError(
            "stream duration must cover the last arrival "
            f"({duration} < {times[-1]})"
        )


@dataclass
class RequestStream:
    """A time-ordered sequence of file requests.

    Attributes
    ----------
    times:
        Non-decreasing arrival times (s).
    file_ids:
        Requested file index per arrival.
    duration:
        Nominal stream horizon (>= last arrival); simulations run at least
        this long so trailing idleness is accounted.
    """

    times: np.ndarray
    file_ids: np.ndarray
    duration: float
    #: Fraction of the parent stream kept by :meth:`scaled` (``None`` for
    #: streams that were not produced by thinning).
    thinning_factor: Optional[float] = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.file_ids = np.asarray(self.file_ids, dtype=np.int64)
        if self.times.ndim != 1 or self.times.shape != self.file_ids.shape:
            raise ConfigError("times and file_ids must be equal-length 1-D arrays")
        validate_stream_times(self.times, self.duration)

    @classmethod
    def poisson(
        cls,
        popularities: np.ndarray,
        rate: float,
        duration: float,
        rng=None,
    ) -> "RequestStream":
        """Poisson arrivals at ``rate`` with i.i.d. Zipf file choice."""
        rng = rng_from_seed(rng)
        times = poisson_arrival_times(rate, duration, rng)
        ids = sample_file_ids(popularities, times.size, rng)
        return cls(times=times, file_ids=ids, duration=float(duration))

    @classmethod
    def merge(cls, streams: list) -> "RequestStream":
        """Merge several streams into one time-ordered stream.

        The result's ``thinning_factor`` is explicitly ``None``: inputs may
        carry different factors (or none), and a merged stream is no longer
        a thinning of any single parent, so the factor is cleared rather
        than propagated from an arbitrary input.
        """
        if not streams:
            raise ConfigError("cannot merge zero streams")
        times = np.concatenate([s.times for s in streams])
        ids = np.concatenate([s.file_ids for s in streams])
        order = np.argsort(times, kind="stable")
        duration = max(s.duration for s in streams)
        return cls(
            times=times[order],
            file_ids=ids[order],
            duration=duration,
            thinning_factor=None,
        )

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        for t, f in zip(self.times, self.file_ids):
            yield float(t), int(f)

    def chunks(self, chunk_size: int):
        """A chunked view of this stream (the ``ChunkedStream`` protocol).

        Slices of the same arrays, so a chunked fast-kernel run is
        bit-identical to the monolithic one.  See
        :mod:`repro.workload.chunked`.
        """
        # Local import: chunked builds on this module.
        from repro.workload.chunked import ChunkedStreamView

        return ChunkedStreamView(self, chunk_size)

    @property
    def mean_rate(self) -> float:
        """Empirical arrival rate over the stream horizon.

        An empty stream has rate ``0.0`` — even at ``duration == 0`` —
        so downstream ``allocate(rate=...)`` callers never see ``NaN``.
        A *non-empty* zero-duration stream (every arrival at t=0) has no
        finite empirical rate and stays ``nan``.
        """
        if len(self) == 0:
            return 0.0
        return len(self) / self.duration if self.duration > 0 else float("nan")

    def scaled(self, factor: float) -> "RequestStream":
        """Subsample a fraction ``factor`` of requests (horizon unchanged).

        Deterministic index-based thinning: ``round(len(self) * factor)``
        requests are kept at evenly spaced positions, so arbitrary factors
        are honored exactly (not just reciprocals of integers — ``0.4``
        keeps 40%, not the 50% a naive every-k-th step would).  The achieved
        fraction is recorded on the result as ``thinning_factor``; a factor
        too small to keep even one request raises
        :class:`~repro.errors.ConfigError`.

        Always returns a *fresh* stream with copied arrays — including at
        ``factor == 1.0``, which used to alias ``self`` and made mutations
        of the "scaled" stream silently corrupt the parent.
        """
        if not 0 < factor <= 1:
            raise ConfigError(f"factor must be in (0, 1], got {factor}")
        if factor == 1.0 or len(self) == 0:
            # Defensive copy, never self: callers may mutate the result.
            # A kept-everything stream records the factor it achieved
            # (1.0 — trivially exact for the empty stream too).
            return RequestStream(
                times=self.times.copy(),
                file_ids=self.file_ids.copy(),
                duration=self.duration,
                thinning_factor=1.0,
            )
        keep = int(round(len(self) * factor))
        if keep == 0:
            raise ConfigError(
                f"factor {factor} would keep zero of {len(self)} requests"
            )
        idx = np.floor(
            np.linspace(0.0, len(self), keep, endpoint=False)
        ).astype(np.int64)
        return RequestStream(
            times=self.times[idx].copy(),
            file_ids=self.file_ids[idx].copy(),
            duration=self.duration,
            thinning_factor=keep / len(self),
        )
