"""NERSC-like trace synthesizer (paper §5.1).

The paper replays a 30-day log of file read requests collected at NERSC
(May 31 - Jun 29, 2008).  The log itself is not public, so this module
synthesizes a trace matching every statistic the paper reports:

* 88,631 distinct files, all of them requested (that is how "distinct files
  involved" is counted), 115,832 read requests over 30 days
  (mean arrival rate 0.0447/s);
* mean requested-file size 544 MB  => ~48 TB footprint => ~95-disk minimum;
* the file-size histogram over 80 bins falls almost linearly in log-log
  scale (Zipf-like sizes), achieved with a bounded power-law size
  distribution calibrated to the target mean;
* **no** correlation between a file's size and its access frequency
  (unlike the synthetic Table 1 workload);
* users fetch *batches* of similar-size files at once — the bursty pattern
  that motivates ``Pack_Disks_v`` — modelled as sessions that pick one size
  bin and request several of its files seconds apart;
* a minority of hot files is re-requested shortly after a previous access,
  giving a small LRU hit ratio (the paper measured 5.6% with 16 GB).

Every draw comes from one seeded generator: traces are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigError
from repro.sim.rng import rng_from_seed
from repro.units import DAY, GB, MB, TB
from repro.workload.sampling import PopularitySampler
from repro.workload.trace import Trace

__all__ = ["NerscTraceParams", "nersc_statistics", "synthesize_nersc_trace"]


@dataclass(frozen=True)
class NerscTraceParams:
    """Calibration knobs; defaults reproduce the paper's published statistics."""

    n_files: int = 88_631
    n_requests: int = 115_832
    duration: float = 30 * DAY
    mean_size: float = 544 * MB
    min_size: float = 1 * MB
    max_size: float = 20 * GB
    size_bins: int = 80
    #: Fraction of the one-request-per-file base that arrives inside
    #: same-size-bin batch sessions.
    batch_fraction: float = 0.5
    #: Mean files per batch session (geometric, >= 2).
    batch_mean: int = 6
    #: Mean gap between requests inside one session (s).
    batch_spacing: float = 2.0
    #: Fraction of the repeat requests re-issued shortly after the previous
    #: access of the same file (drives the LRU hit ratio).
    repeat_locality: float = 0.35
    #: Mean delay of a local repeat (s).
    repeat_delay: float = 300.0
    #: Zipf exponent of the repeat-request popularity skew.
    repeat_exponent: float = 0.9
    seed: Optional[int] = 20080531

    def __post_init__(self) -> None:
        if self.n_requests < self.n_files:
            raise ConfigError(
                "n_requests must be >= n_files (every file is requested "
                "at least once)"
            )
        if not 0 < self.min_size < self.max_size:
            raise ConfigError("need 0 < min_size < max_size")
        if not self.min_size < self.mean_size < self.max_size:
            raise ConfigError("mean_size must lie inside (min_size, max_size)")
        if not 0 <= self.batch_fraction <= 1:
            raise ConfigError("batch_fraction must be in [0, 1]")
        if self.batch_mean < 2:
            raise ConfigError("batch_mean must be >= 2")
        if not 0 <= self.repeat_locality <= 1:
            raise ConfigError("repeat_locality must be in [0, 1]")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")

    def scaled(self, scale: float) -> "NerscTraceParams":
        """Shrink file and request counts proportionally.

        The duration (and therefore the arrival sparsity per disk, since
        the disk pool shrinks with the footprint) is preserved, so idleness
        statistics — the quantity Figures 5/6 depend on — are comparable
        across scales.
        """
        if not 0 < scale <= 1:
            raise ConfigError(f"scale must be in (0, 1], got {scale}")
        n_files = max(10, int(self.n_files * scale))
        extra = self.n_requests - self.n_files
        return NerscTraceParams(
            n_files=n_files,
            n_requests=n_files + max(0, int(extra * scale)),
            duration=self.duration,
            mean_size=self.mean_size,
            min_size=self.min_size,
            max_size=self.max_size,
            size_bins=self.size_bins,
            batch_fraction=self.batch_fraction,
            batch_mean=self.batch_mean,
            batch_spacing=self.batch_spacing,
            repeat_locality=self.repeat_locality,
            repeat_delay=self.repeat_delay,
            repeat_exponent=self.repeat_exponent,
            seed=self.seed,
        )


def _bounded_powerlaw_mean(beta: float, lo: float, hi: float) -> float:
    """Mean of the density ``f(s) ~ s^-beta`` truncated to ``[lo, hi]``."""
    if abs(beta - 1.0) < 1e-9:
        norm = math.log(hi / lo)
        return (hi - lo) / norm
    if abs(beta - 2.0) < 1e-9:
        norm = (lo ** (-1.0) - hi ** (-1.0))
        return math.log(hi / lo) / norm
    a = 1.0 - beta
    b = 2.0 - beta
    norm = (hi**a - lo**a) / a
    first = (hi**b - lo**b) / b
    return first / norm


def calibrate_size_exponent(
    mean_size: float, min_size: float, max_size: float
) -> float:
    """Find the power-law exponent whose truncated mean hits ``mean_size``.

    The mean of a bounded power law is monotone decreasing in the exponent,
    so plain bisection converges.
    """
    lo_beta, hi_beta = 0.01, 5.0
    if not (
        _bounded_powerlaw_mean(hi_beta, min_size, max_size)
        <= mean_size
        <= _bounded_powerlaw_mean(lo_beta, min_size, max_size)
    ):
        raise ConfigError(
            f"target mean {mean_size:g} unreachable for size range "
            f"[{min_size:g}, {max_size:g}]"
        )
    for _ in range(200):
        mid = 0.5 * (lo_beta + hi_beta)
        if _bounded_powerlaw_mean(mid, min_size, max_size) > mean_size:
            lo_beta = mid
        else:
            hi_beta = mid
    return 0.5 * (lo_beta + hi_beta)


def _sample_bounded_powerlaw(
    beta: float, lo: float, hi: float, n: int, rng
) -> np.ndarray:
    """Inverse-CDF sampling of the truncated power law."""
    u = rng.uniform(size=n)
    if abs(beta - 1.0) < 1e-9:
        return lo * (hi / lo) ** u
    a = 1.0 - beta
    return (lo**a + u * (hi**a - lo**a)) ** (1.0 / a)


def _synthesize_base(
    params: NerscTraceParams, rng
) -> "tuple[np.ndarray, np.ndarray]":
    """The O(n_files) half of the synthesis: sizes + base arrival times.

    Returns ``(sizes, times)`` — one request per file, a
    ``batch_fraction`` of them inside same-size-bin batch sessions.
    Shared by :func:`synthesize_nersc_trace` and the chunked streaming
    variant (:class:`repro.workload.chunked.ChunkedNerscStream`); draw
    order is part of the contract (the monolithic trace is regression-
    pinned by seed).
    """
    n = params.n_files

    # --- file sizes: bounded power law hitting the target mean --------------
    beta = calibrate_size_exponent(
        params.mean_size, params.min_size, params.max_size
    )
    sizes = _sample_bounded_powerlaw(
        beta, params.min_size, params.max_size, n, rng
    )
    # The sample mean of a heavy-tailed draw is dominated by its largest
    # values and wanders several percent; rescale so the published mean
    # (and hence the ~95-disk footprint) is hit exactly.
    sizes *= params.mean_size / sizes.mean()

    # --- base requests: every file exactly once ------------------------------
    # A fraction arrives inside same-size-bin batch sessions, the rest at
    # independent uniform times.
    times = np.empty(n, dtype=float)
    in_session = np.zeros(n, dtype=bool)

    bin_edges = np.geomspace(params.min_size, params.max_size, params.size_bins + 1)
    bin_of = np.clip(
        np.searchsorted(bin_edges, sizes, side="right") - 1,
        0,
        params.size_bins - 1,
    )

    target_batch = int(params.batch_fraction * n)
    assigned = 0
    # Iterate bins in random order, carving sessions from each bin's files.
    order = rng.permutation(params.size_bins)
    for b in order:
        if assigned >= target_batch:
            break
        members = np.flatnonzero(bin_of == b)
        members = members[rng.permutation(members.size)]
        pos = 0
        while pos < members.size and assigned < target_batch:
            batch = 2 + rng.geometric(1.0 / max(1, params.batch_mean - 1))
            group = members[pos : pos + batch]
            pos += batch
            if group.size == 0:
                break
            start = rng.uniform(0.0, params.duration)
            gaps = rng.exponential(params.batch_spacing, size=group.size)
            t = np.minimum(start + np.cumsum(gaps), params.duration)
            times[group] = t
            in_session[group] = True
            assigned += group.size

    loose = ~in_session
    times[loose] = rng.uniform(0.0, params.duration, size=int(loose.sum()))
    return sizes, times


def synthesize_nersc_trace(params: NerscTraceParams = NerscTraceParams()) -> Trace:
    """Generate a NERSC-like trace per the module docstring."""
    rng = rng_from_seed(params.seed)
    n = params.n_files
    sizes, times = _synthesize_base(params, rng)

    # --- repeat requests: Zipf-skewed, partially temporally local ------------
    n_extra = params.n_requests - n
    ranks = rng.permutation(n) + 1  # random popularity order, size-independent
    weights = ranks.astype(float) ** (-params.repeat_exponent)
    extra_ids = PopularitySampler(weights).draw(n_extra, rng)
    local = rng.uniform(size=n_extra) < params.repeat_locality
    extra_times = np.where(
        local,
        np.minimum(
            times[extra_ids] + rng.exponential(params.repeat_delay, size=n_extra),
            params.duration,
        ),
        rng.uniform(0.0, params.duration, size=n_extra),
    )

    all_times = np.concatenate([times, extra_times])
    all_ids = np.concatenate([np.arange(n, dtype=np.int64), extra_ids])
    order = np.argsort(all_times, kind="stable")

    return Trace.from_requests(
        name="nersc-synthetic",
        sizes=sizes,
        times=all_times[order],
        file_ids=all_ids[order],
        duration=params.duration,
    )


def nersc_statistics(trace: Trace, disk_capacity: float = 500 * GB) -> Dict[str, float]:
    """Summary statistics in the units §5.1 reports them."""
    sizes = trace.catalog.sizes
    counts = np.bincount(trace.stream.file_ids, minlength=trace.catalog.n)
    return {
        "distinct_files": float(trace.n_files),
        "requests": float(trace.n_requests),
        "duration_days": trace.stream.duration / DAY,
        "mean_rate_per_sec": trace.mean_request_rate(),
        "mean_size_mb": float(sizes.mean() / MB),
        "footprint_tb": float(sizes.sum() / TB),
        "min_disks_for_space": float(
            math.ceil(sizes.sum() / disk_capacity)
        ),
        "max_requests_per_file": float(counts.max()),
        "size_frequency_correlation": float(
            np.corrcoef(sizes, counts)[0, 1]
        ),
    }
