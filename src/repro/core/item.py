"""The 2DVPP item type and normalization helpers.

Each file becomes a :class:`PackItem` with *normalized* coordinates: ``size``
is the file size divided by the usable per-disk capacity ``S`` and ``load`` is
the file's disk-time load divided by the per-disk load cap ``L``.  Both lie in
``[0, 1]``; the paper assumes all coordinates are bounded by a constant
``rho < 1``, which drives the approximation guarantee.
"""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Sequence

import numpy as np

from repro.errors import PackingError

__all__ = ["PackItem", "make_items", "rho_of"]

#: Comparison tolerance used throughout the packing code; capacities are
#: treated as satisfied when exceeded by no more than this.
EPS = 1e-9


class PackItem(NamedTuple):
    """A normalized 2DVPP element ``(s_i, l_i)`` tagged with its file index.

    Attributes
    ----------
    index:
        Original position of the file in the input collection; the packing
        output maps these indices to disks.
    size:
        Normalized storage requirement, in ``[0, 1]``.
    load:
        Normalized load (fraction of the disk's service-time budget), in
        ``[0, 1]``.
    """

    index: int
    size: float
    load: float

    @property
    def size_intensive(self) -> bool:
        """Paper terminology: item belongs to ``ST(F)`` when ``s_i >= l_i``."""
        return self.size >= self.load

    @property
    def load_intensive(self) -> bool:
        """Paper terminology: item belongs to ``LD(F)`` when ``l_i > s_i``."""
        return self.load > self.size

    @property
    def excess(self) -> float:
        """The heap key ``|s_i - l_i|`` (``~s_i`` or ``~l_i`` in the paper)."""
        return abs(self.size - self.load)


def make_items(
    sizes: Sequence[float],
    loads: Sequence[float],
    storage_capacity: float = 1.0,
    load_capacity: float = 1.0,
) -> List[PackItem]:
    """Normalize raw (size, load) pairs into :class:`PackItem` elements.

    Parameters
    ----------
    sizes:
        Raw file sizes (any consistent unit, e.g. bytes).
    loads:
        Raw file loads (fraction of disk service time, or any consistent
        unit when ``load_capacity`` carries the same unit).
    storage_capacity:
        Usable storage per disk, same unit as ``sizes``.
    load_capacity:
        Load budget per disk, same unit as ``loads``.

    Raises
    ------
    PackingError
        If the inputs disagree in length, contain NaN, infinite or negative
        values, a capacity is not positive and finite, or any single
        normalized coordinate exceeds 1 (that file can never be placed).
    """
    s = np.asarray(sizes, dtype=float)
    l = np.asarray(loads, dtype=float)
    if s.shape != l.shape or s.ndim != 1:
        raise PackingError(
            f"sizes and loads must be equal-length 1-D sequences, got "
            f"shapes {s.shape} and {l.shape}"
        )
    if not (0 < storage_capacity < math.inf and 0 < load_capacity < math.inf):
        raise PackingError(
            f"capacities must be positive and finite, got "
            f"S={storage_capacity}, L={load_capacity}"
        )
    if not (np.isfinite(s).all() and np.isfinite(l).all()):
        raise PackingError("sizes and loads must be finite")
    if np.any(s < 0) or np.any(l < 0):
        raise PackingError("sizes and loads must be non-negative")
    s = s / storage_capacity
    l = l / load_capacity
    if np.any(s > 1 + EPS):
        worst = int(np.argmax(s))
        raise PackingError(
            f"file {worst} needs {s[worst]:.4f} of a disk's storage "
            f"capacity (> 1); it cannot be packed"
        )
    if np.any(l > 1 + EPS):
        worst = int(np.argmax(l))
        raise PackingError(
            f"file {worst} carries {l[worst]:.4f} of a disk's load "
            f"capacity (> 1); it cannot be packed"
        )
    return list(
        map(PackItem._make, zip(range(len(s)), s.tolist(), l.tolist()))
    )


def rho_of(items: Iterable[PackItem]) -> float:
    """The paper's ``rho``: the largest normalized coordinate of any item.

    The Theorem 1 guarantee is ``C_PD <= C*/(1 - rho) + 1``; a small ``rho``
    (files much smaller/cooler than one disk) means near-optimal packing.
    Returns 0.0 for an empty collection.
    """
    rho = 0.0
    for item in items:
        if item.size > rho:
            rho = item.size
        if item.load > rho:
            rho = item.load
    return rho
