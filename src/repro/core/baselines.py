"""Comparison allocators: random placement and classic packing heuristics.

The paper evaluates ``Pack_Disks`` against **random placement** (uniform
file-to-disk assignment over a fixed pool, storage-feasibility respected);
the other heuristics here (first-fit, best-fit, first-fit-decreasing,
next-fit, round-robin) are standard vector-packing baselines used by the
ablation benchmarks.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.allocation import Allocation, PackedDisk
from repro.core.item import EPS, ItemArray, PackItem
from repro.errors import CapacityError, PackingError
from repro.sim.rng import rng_from_seed

__all__ = [
    "best_fit",
    "first_fit",
    "first_fit_decreasing",
    "next_fit",
    "random_allocation",
    "round_robin_allocation",
]


def _finalize(
    bins: List[List[PackItem]], algorithm: str, rho: float = 0.0
) -> Allocation:
    disks = [
        PackedDisk(index=i, items=items) for i, items in enumerate(bins)
    ]
    return Allocation(disks=disks, algorithm=algorithm, rho=rho)


def random_allocation(
    items: Sequence[PackItem],
    num_disks: int,
    rng=None,
    respect_capacity: bool = True,
) -> Allocation:
    """Uniform random file-to-disk placement over a fixed pool.

    This is the paper's comparison baseline: each file lands on a uniformly
    random disk.  With ``respect_capacity`` (default), a file that does not
    fit by *storage* on the drawn disk is re-drawn among the disks with
    space (random placement is oblivious to loads, as in the paper).

    All disks are drawn at once: a batch of ``rng.integers`` draws equals
    the same number of scalar draws, generator state included.  While no
    file needs a re-draw that batch is the placement; whether one does is
    read off each disk's running fill, a sequential cumulative sum in file
    order (the per-file sums, bit for bit).  Only then is the generator
    rewound and the files placed one at a time (:func:`_place_per_file`),
    so the mapping and the generator's end state match a per-file loop
    exactly.

    Raises
    ------
    CapacityError
        If ``respect_capacity`` and some file fits on no disk.
    """
    if num_disks < 1:
        raise PackingError(f"num_disks must be >= 1, got {num_disks}")
    rng = rng_from_seed(rng)
    arr = ItemArray.of(items)
    state = rng.bit_generator.state
    disks = rng.integers(num_disks, size=len(arr))
    order = np.argsort(disks, kind="stable")
    offsets = np.zeros(num_disks + 1, dtype=np.int64)
    np.cumsum(np.bincount(disks, minlength=num_disks), out=offsets[1:])
    if respect_capacity and _overflows(arr.size[order], offsets):
        rng.bit_generator.state = state
        disks = _place_per_file(arr, num_disks, rng)
        order = np.argsort(disks, kind="stable")
        np.cumsum(np.bincount(disks, minlength=num_disks), out=offsets[1:])
    return Allocation.from_order(arr, order, offsets, f"random_{num_disks}")


def _overflows(sizes: np.ndarray, offsets: np.ndarray) -> bool:
    """Whether some disk's running fill passes ``1 + EPS``, with
    ``sizes[offsets[d]:offsets[d + 1]]`` disk ``d``'s files in file order.
    ``np.cumsum`` adds them one after the other, as ``fill[d] += size``
    does."""
    bounds = offsets.tolist()
    return any(
        (np.cumsum(sizes[lo:hi]) > 1 + EPS).any()
        for lo, hi in zip(bounds, bounds[1:])
    )


def _place_per_file(arr: ItemArray, num_disks: int, rng) -> np.ndarray:
    """Each file's disk, as drawn, with a file its disk cannot hold
    re-drawn among the disks with room.  Draws in a batch up to the first
    such file, then rewinds the generator to just after that file's draw
    and draws one file at a time."""
    state = rng.bit_generator.state
    disks = rng.integers(num_disks, size=len(arr))
    fill = [0.0] * num_disks
    per_file = False
    for pos, size in enumerate(arr.size.tolist()):
        disk = int(rng.integers(num_disks)) if per_file else int(disks[pos])
        if fill[disk] + size > 1 + EPS:
            if not per_file:
                rng.bit_generator.state = state
                rng.integers(num_disks, size=pos + 1)
                per_file = True
            feasible = np.flatnonzero(np.array(fill) + size <= 1 + EPS)
            if feasible.size == 0:
                raise CapacityError(
                    f"file {int(arr.index[pos])} (s={size:.4f}) fits on none "
                    f"of the {num_disks} disks"
                )
            disk = int(feasible[rng.integers(feasible.size)])
        disks[pos] = disk
        fill[disk] += size
    return disks


def round_robin_allocation(
    items: Sequence[PackItem],
    num_disks: int,
    respect_capacity: bool = True,
) -> Allocation:
    """Deterministic striping: file ``i`` goes to disk ``i mod num_disks``.

    This is the placement flavour used by striping-based schemes such as
    SEA; it spreads load perfectly but destroys idleness.
    """
    if num_disks < 1:
        raise PackingError(f"num_disks must be >= 1, got {num_disks}")
    bins: List[List[PackItem]] = [[] for _ in range(num_disks)]
    sizes = np.zeros(num_disks)
    for i, item in enumerate(items):
        disk = i % num_disks
        if respect_capacity and sizes[disk] + item.size > 1 + EPS:
            feasible = np.flatnonzero(sizes + item.size <= 1 + EPS)
            if feasible.size == 0:
                raise CapacityError(
                    f"file {item.index} (s={item.size:.4f}) fits on none of "
                    f"the {num_disks} disks"
                )
            disk = int(feasible[0])
        bins[disk].append(item)
        sizes[disk] += item.size
    return _finalize(bins, f"round_robin_{num_disks}")


def _fits(sizes: float, loads: float, item: PackItem) -> bool:
    return sizes + item.size <= 1 + EPS and loads + item.load <= 1 + EPS


def first_fit(items: Sequence[PackItem]) -> Allocation:
    """First-fit on both dimensions: place each item on the lowest-numbered
    disk where it fits, opening a new disk when none does."""
    bins: List[List[PackItem]] = []
    sizes: List[float] = []
    loads: List[float] = []
    for item in items:
        for i in range(len(bins)):
            if _fits(sizes[i], loads[i], item):
                bins[i].append(item)
                sizes[i] += item.size
                loads[i] += item.load
                break
        else:
            bins.append([item])
            sizes.append(item.size)
            loads.append(item.load)
    return _finalize(bins, "first_fit")


def best_fit(items: Sequence[PackItem]) -> Allocation:
    """Best-fit: place each item on the feasible disk with the least combined
    slack remaining after placement (tightest fit)."""
    bins: List[List[PackItem]] = []
    sizes: List[float] = []
    loads: List[float] = []
    for item in items:
        best = -1
        best_slack = float("inf")
        for i in range(len(bins)):
            if _fits(sizes[i], loads[i], item):
                slack = (1 - sizes[i] - item.size) + (1 - loads[i] - item.load)
                if slack < best_slack:
                    best = i
                    best_slack = slack
        if best < 0:
            bins.append([item])
            sizes.append(item.size)
            loads.append(item.load)
        else:
            bins[best].append(item)
            sizes[best] += item.size
            loads[best] += item.load
    return _finalize(bins, "best_fit")


def first_fit_decreasing(
    items: Sequence[PackItem],
    key: Optional[Callable[[PackItem], float]] = None,
) -> Allocation:
    """First-fit after sorting by decreasing ``key`` (default
    ``max(s_i, l_i)``, the standard vector-packing order)."""
    if key is None:
        key = lambda item: max(item.size, item.load)  # noqa: E731
    ordered = sorted(items, key=key, reverse=True)
    allocation = first_fit(ordered)
    allocation.algorithm = "first_fit_decreasing"
    return allocation


def next_fit(items: Sequence[PackItem]) -> Allocation:
    """Next-fit: keep a single open disk; open a new one when the next item
    does not fit.  The weakest (but O(n)) baseline."""
    bins: List[List[PackItem]] = []
    size = load = 0.0
    current: List[PackItem] = []
    for item in items:
        if current and not _fits(size, load, item):
            bins.append(current)
            current = []
            size = load = 0.0
        current.append(item)
        size += item.size
        load += item.load
    if current:
        bins.append(current)
    return _finalize(bins, "next_fit")
