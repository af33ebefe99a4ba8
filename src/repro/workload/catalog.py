"""The file catalog: sizes and access probabilities of every file."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.disk.service import ServiceModel
from repro.errors import ConfigError
from repro.sim.rng import rng_from_seed
from repro.workload.zipf import PAPER_THETA, inverse_zipf_sizes, zipf_popularities

__all__ = ["FileCatalog"]


@dataclass
class FileCatalog:
    """Sizes (bytes) and popularities (summing to 1) of ``n`` files.

    File ``i`` is identified by its index.  Popularities are the
    steady-state probability that a random request targets the file.
    """

    sizes: np.ndarray
    popularities: np.ndarray

    def __post_init__(self) -> None:
        self.sizes = np.asarray(self.sizes, dtype=float)
        self.popularities = np.asarray(self.popularities, dtype=float)
        if self.sizes.ndim != 1 or self.sizes.shape != self.popularities.shape:
            raise ConfigError(
                "sizes and popularities must be equal-length 1-D arrays"
            )
        if self.n == 0:
            raise ConfigError("catalog must contain at least one file")
        if not np.all(np.isfinite(self.sizes) & (self.sizes >= 0)):
            raise ConfigError("file sizes must be finite and non-negative")
        if np.any(self.popularities < 0):
            raise ConfigError("popularities must be non-negative")
        total = self.popularities.sum()
        if not np.isclose(total, 1.0, rtol=1e-6):
            raise ConfigError(
                f"popularities must sum to 1 (got {total:.6f}); "
                "normalize before constructing the catalog"
            )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_zipf(
        cls,
        n: int,
        theta: float = PAPER_THETA,
        s_max: float = 20e9,
        s_min: Optional[float] = None,
        correlation: str = "inverse",
        rng=None,
    ) -> "FileCatalog":
        """Build the paper's Table 1 catalog.

        Parameters
        ----------
        n, theta, s_max, s_min:
            See :mod:`repro.workload.zipf`.
        correlation:
            ``"inverse"`` — hot files are small (the paper's synthetic
            assumption); ``"none"`` — sizes shuffled independently of
            popularity (what the paper observed in the NERSC logs);
            ``"direct"`` — hot files are large (adversarial case).
        rng:
            Seed/generator for the ``"none"`` shuffle.
        """
        pops = zipf_popularities(n, theta)
        sizes = inverse_zipf_sizes(n, theta, s_max, s_min)
        if correlation == "inverse":
            pass
        elif correlation == "none":
            sizes = rng_from_seed(rng).permutation(sizes)
        elif correlation == "direct":
            sizes = sizes[::-1].copy()
        else:
            raise ConfigError(
                f"unknown correlation {correlation!r}; choose "
                "'inverse', 'none' or 'direct'"
            )
        return cls(sizes=sizes, popularities=pops)

    # -- accessors ---------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of files."""
        return int(self.sizes.shape[0])

    @property
    def total_bytes(self) -> float:
        """Sum of all file sizes."""
        return float(self.sizes.sum())

    @property
    def mean_size(self) -> float:
        """Unweighted mean file size."""
        return float(self.sizes.mean())

    @property
    def request_weighted_mean_size(self) -> float:
        """Mean size of a *requested* file (popularity-weighted)."""
        return float(np.dot(self.popularities, self.sizes))

    def loads(self, arrival_rate: float, service: ServiceModel) -> np.ndarray:
        """Absolute per-file loads ``l_i = R p_i f(s_i)``."""
        return service.loads(self.sizes, self.popularities, arrival_rate)

    def total_load(self, arrival_rate: float, service: ServiceModel) -> float:
        """Aggregate disk-time demand per second (lower bound on spinning disks)."""
        return float(self.loads(arrival_rate, service).sum())

    def min_disks_for_space(self, capacity: float) -> int:
        """Minimum disk count by raw storage (ignores loads)."""
        if capacity <= 0:
            raise ConfigError("capacity must be positive")
        return int(np.ceil(self.total_bytes / capacity))

    def size_popularity_correlation(self) -> float:
        """Pearson correlation between size and popularity (diagnostic)."""
        if self.n < 2:
            return float("nan")
        return float(np.corrcoef(self.sizes, self.popularities)[0, 1])
