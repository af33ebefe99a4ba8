"""Allocation result types shared by every packing algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.item import EPS, ItemArray, PackItem
from repro.errors import PackingError

__all__ = ["Allocation", "PackedDisk"]


@dataclass
class PackedDisk:
    """One disk's worth of items produced by an allocator.

    Attributes
    ----------
    index:
        Disk number (0-based).
    items:
        The items placed on this disk, in placement order.
    """

    index: int
    items: List[PackItem] = field(default_factory=list)

    @property
    def total_size(self) -> float:
        """``S(D_i)`` — summed normalized sizes."""
        return sum(item.size for item in self.items)

    @property
    def total_load(self) -> float:
        """``L(D_i)`` — summed normalized loads."""
        return sum(item.load for item in self.items)

    def is_s_complete(self, rho: float) -> bool:
        """Paper definition: ``1 >= S(D_i) >= 1 - rho``."""
        return 1 - rho - EPS <= self.total_size <= 1 + EPS

    def is_l_complete(self, rho: float) -> bool:
        """Paper definition: ``1 >= L(D_i) >= 1 - rho``."""
        return 1 - rho - EPS <= self.total_load <= 1 + EPS

    def is_complete(self, rho: float) -> bool:
        """Both s-complete and l-complete."""
        return self.is_s_complete(rho) and self.is_l_complete(rho)

    def __len__(self) -> int:
        return len(self.items)


class Allocation:
    """A full file-to-disk assignment.

    Built either from a list of :class:`PackedDisk` or, by the array-native
    allocators, with :meth:`from_order`: a placement order over an
    :class:`~repro.core.item.ItemArray` cut into disks at ``offsets``.  In
    the second form ``disks`` is built only when first read.

    Attributes
    ----------
    disks:
        The packed disks, densely numbered from 0.
    algorithm:
        Human-readable name of the allocator that produced this.
    rho:
        The ``rho`` (max normalized coordinate) of the packed item set;
        carried along for bound checking.
    """

    def __init__(
        self,
        disks: Optional[List[PackedDisk]] = None,
        algorithm: str = "",
        rho: float = 0.0,
    ) -> None:
        self._disks = [] if disks is None else disks
        self.algorithm = algorithm
        self.rho = rho
        self._items: Optional[ItemArray] = None

    @classmethod
    def from_order(
        cls,
        items: ItemArray,
        order: np.ndarray,
        offsets: np.ndarray,
        algorithm: str,
        rho: float = 0.0,
    ) -> "Allocation":
        """Disk ``k`` holds ``items`` at positions
        ``order[offsets[k]:offsets[k + 1]]``, in placement order (both
        int64 arrays)."""
        alloc = cls(None, algorithm, rho)
        alloc._disks = None
        alloc._items, alloc._order, alloc._offsets = items, order, offsets
        return alloc

    @property
    def disks(self) -> List[PackedDisk]:
        if self._disks is None:
            items = self._items.items()
            order = self._order.tolist()
            bounds = self._offsets.tolist()
            self._disks = [
                PackedDisk(k, [items[pos] for pos in order[lo:hi]])
                for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            ]
        return self._disks

    @property
    def num_disks(self) -> int:
        """Number of (non-empty) disks used."""
        if self._items is not None:
            return len(self._offsets) - 1
        return len(self._disks)

    @property
    def num_items(self) -> int:
        """Total number of items across all disks."""
        return len(self._placement()[0])

    def _placement(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(file index, disk index)`` of every placed item, disk by disk."""
        if self._items is not None:
            files = self._items.index[self._order]
            owners = np.repeat(
                np.arange(self.num_disks, dtype=np.int64), np.diff(self._offsets)
            )
            return files, owners
        disks = self._disks
        files = [item.index for d in disks for item in d.items]
        owners = np.repeat([d.index for d in disks], [len(d) for d in disks])
        return np.array(files, dtype=np.int64), owners.astype(np.int64)

    def mapping(self, num_files: Optional[int] = None) -> np.ndarray:
        """Dense ``file index -> disk index`` array.

        Parameters
        ----------
        num_files:
            Length of the output array; defaults to ``max index + 1``.
            Unassigned slots (if any) are ``-1``.
        """
        files, owners = self._placement()
        if num_files is None:
            num_files = 1 + int(files.max()) if files.size else 0
        over = np.flatnonzero(files >= num_files)
        if over.size:
            raise PackingError(
                f"item index {int(files[over[0]])} out of range for "
                f"num_files={num_files}"
            )
        table = np.full(num_files, -1, dtype=np.int64)
        table[files] = owners
        return table

    def mapping_dict(self) -> Dict[int, int]:
        """``{file index: disk index}`` for sparse use."""
        files, owners = self._placement()
        return dict(zip(files.tolist(), owners.tolist()))

    def sizes_per_disk(self) -> np.ndarray:
        """Array of ``S(D_i)`` per disk."""
        return np.array([d.total_size for d in self.disks], dtype=float)

    def loads_per_disk(self) -> np.ndarray:
        """Array of ``L(D_i)`` per disk."""
        return np.array([d.total_load for d in self.disks], dtype=float)

    def validate(self, items: Optional[Sequence[PackItem]] = None, tol: float = EPS) -> None:
        """Raise :class:`PackingError` unless this is a feasible allocation.

        Checks per-disk capacity on both dimensions, dense disk numbering,
        and — when ``items`` is given — that every input item appears exactly
        once.
        """
        for pos, disk in enumerate(self.disks):
            if disk.index != pos:
                raise PackingError(
                    f"disks are not densely numbered: position {pos} holds "
                    f"disk {disk.index}"
                )
            if disk.total_size > 1 + tol:
                raise PackingError(
                    f"disk {pos} storage overflow: S={disk.total_size:.9f}"
                )
            if disk.total_load > 1 + tol:
                raise PackingError(
                    f"disk {pos} load overflow: L={disk.total_load:.9f}"
                )
        if items is not None:
            seen = sorted(self._placement()[0].tolist())
            expected = sorted(item.index for item in items)
            if seen != expected:
                raise PackingError(
                    f"allocation covers {len(seen)} items but input has "
                    f"{len(expected)} (or indices differ)"
                )

    def summary(self) -> str:
        """One-line human-readable description."""
        if not self.disks:
            return f"{self.algorithm}: empty allocation"
        s = self.sizes_per_disk()
        l = self.loads_per_disk()
        return (
            f"{self.algorithm}: {self.num_items} files on {self.num_disks} "
            f"disks (mean fill S={s.mean():.3f}, L={l.mean():.3f})"
        )
