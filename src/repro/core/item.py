"""The 2DVPP item type and normalization helpers.

Each file becomes a :class:`PackItem` with *normalized* coordinates: ``size``
is the file size divided by the usable per-disk capacity ``S`` and ``load`` is
the file's disk-time load divided by the per-disk load cap ``L``.  Both lie in
``[0, 1]``; the paper assumes all coordinates are bounded by a constant
``rho < 1``, which drives the approximation guarantee.  An
:class:`ItemArray` holds the same items as arrays; it is what the
array-native allocators read.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import PackingError

__all__ = ["ItemArray", "PackItem", "item_array", "make_items", "rho_of"]

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


class ItemArray(Sequence[PackItem]):
    """Normalized items held as arrays: file ``index``, ``size``, ``load``.

    The array-native allocators read the arrays directly.  Every other
    caller sees a read-only sequence of :class:`PackItem`, built on first
    use.
    """

    __slots__ = ("index", "size", "load", "_items")

    def __init__(
        self, size: np.ndarray, load: np.ndarray, index: Optional[np.ndarray] = None
    ) -> None:
        self.size = size
        self.load = load
        self.index = np.arange(len(size)) if index is None else index
        self._items: Optional[List[PackItem]] = None

    @classmethod
    def of(cls, items: Iterable[PackItem]) -> "ItemArray":
        """``items`` as an :class:`ItemArray` (itself when it is one)."""
        if isinstance(items, ItemArray):
            return items
        items = list(items)
        arr = cls(
            np.array([item.size for item in items], dtype=float),
            np.array([item.load for item in items], dtype=float),
            np.array([item.index for item in items], dtype=np.int64),
        )
        arr._items = items
        return arr

    def items(self) -> List[PackItem]:
        """The items as a list of :class:`PackItem` with plain floats."""
        if self._items is None:
            rows = zip(self.index.tolist(), self.size.tolist(), self.load.tolist())
            self._items = list(map(PackItem._make, rows))
        return self._items

    def __len__(self) -> int:
        return len(self.size)

    def __getitem__(self, i):
        return self.items()[i]

    def __iter__(self) -> Iterator[PackItem]:
        return iter(self.items())


def item_array(
    sizes: Sequence[float],
    loads: Sequence[float],
    storage_capacity: float = 1.0,
    load_capacity: float = 1.0,
) -> ItemArray:
    """Normalize raw (size, load) pairs into an :class:`ItemArray`.

    Parameters and errors as for :func:`make_items`.
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
    return ItemArray(s, l)


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
    return item_array(sizes, loads, storage_capacity, load_capacity).items()


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
