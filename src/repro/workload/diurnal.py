"""Nonhomogeneous Poisson arrivals (diurnal load cycles).

Scientific data centers see strong day/night and weekday cycles; the
paper's §6 plans "additional workloads".  This module generates arrivals
from a time-varying rate function by **thinning** (Lewis & Shedler): draw
a homogeneous process at the peak rate, keep each point with probability
``rate(t) / peak``.  A ready-made sinusoidal day profile is included.

The semi-dynamic reorganization runner
(:class:`repro.system.runner.ReorganizingRunner`) pairs naturally with
these streams: epoch popularity estimates track the cycle.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.sim.rng import rng_from_seed
from repro.units import DAY
from repro.workload.arrivals import RequestStream, sample_file_ids

__all__ = [
    "diurnal_rate",
    "nonhomogeneous_stream",
    "thin",
    "thinned_arrival_times",
]


def diurnal_rate(
    mean_rate: float,
    amplitude: float = 0.8,
    peak_hour: float = 14.0,
    period: float = DAY,
) -> Callable[[float], float]:
    """A sinusoidal day/night rate profile.

    ``rate(t) = mean * (1 + amplitude * cos(2*pi*(t - peak)/period))`` —
    peaks at ``peak_hour`` (simulation time 0 = midnight), never negative
    for ``amplitude <= 1``.
    """
    if mean_rate < 0:
        raise ConfigError("mean_rate must be >= 0")
    if not 0 <= amplitude <= 1:
        raise ConfigError("amplitude must be in [0, 1]")
    if period <= 0:
        raise ConfigError("period must be positive")
    peak = peak_hour * 3_600.0

    def rate(t: float) -> float:
        return mean_rate * (
            1.0 + amplitude * math.cos(2 * math.pi * (t - peak) / period)
        )

    return rate


def thinned_arrival_times(
    rate_fn: Callable[[float], float],
    peak_rate: float,
    duration: float,
    rng=None,
) -> np.ndarray:
    """Arrival times of the nonhomogeneous process on ``[0, duration)``.

    Parameters
    ----------
    rate_fn:
        Instantaneous rate (must satisfy ``0 <= rate_fn(t) <= peak_rate``).
    peak_rate:
        Dominating constant for the thinning proposal.
    duration:
        Horizon in seconds.
    """
    if peak_rate <= 0:
        raise ConfigError("peak_rate must be positive")
    if duration < 0:
        raise ConfigError("duration must be >= 0")
    rng = rng_from_seed(rng)
    n = int(rng.poisson(peak_rate * duration))
    times = rng.uniform(0.0, duration, size=n)
    times.sort()
    return thin(times, rate_fn, peak_rate, rng)


def thin(
    times: np.ndarray,
    rate_fn: Callable[[float], float],
    peak_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """The Lewis & Shedler thinning step: keep each proposal ``t`` of a
    homogeneous process at ``peak_rate`` with probability
    ``rate_fn(t) / peak_rate``, drawing one uniform per proposal."""
    rates = np.array([rate_fn(t) for t in times])
    if np.any(rates > peak_rate * (1 + 1e-9)):
        raise ConfigError("rate_fn exceeds peak_rate; thinning is biased")
    if np.any(rates < 0):
        raise ConfigError("rate_fn must be non-negative")
    keep = rng.uniform(0.0, peak_rate, size=times.size) < rates
    return times[keep]


def nonhomogeneous_stream(
    popularities: np.ndarray,
    rate_fn: Callable[[float], float],
    peak_rate: float,
    duration: float,
    rng=None,
) -> RequestStream:
    """A :class:`RequestStream` with time-varying arrival intensity."""
    rng = rng_from_seed(rng)
    times = thinned_arrival_times(rate_fn, peak_rate, duration, rng)
    ids = sample_file_ids(popularities, times.size, rng)
    return RequestStream(times=times, file_ids=ids, duration=float(duration))
