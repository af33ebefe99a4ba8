"""``Pack_Disks`` — the paper's O(n log n) 2DVPP approximation (Algorithm 3).

Sketch of the algorithm
-----------------------
Items are split into the *size-intensive* set ``ST(F)`` (``s_i >= l_i``) and
the *load-intensive* set ``LD(F)`` (``l_i > s_i``), kept in two max-heaps
keyed by the excess ``~s_i = s_i - l_i`` and ``~l_i = l_i - s_i``.  Disks are
packed one at a time; the next item always comes from the heap *opposite* to
the dimension currently dominating the open disk, driving both dimensions up
together.  If the popped item would overflow, the most recently added item of
the opposite kind is evicted back to its heap (an O(1) operation thanks to
the two per-disk stacks ``s-list``/``l-list``), the popped item is inserted,
and — by the paper's Lemmas 3/4 — the disk is then *complete* (both
dimensions within ``[1 - rho, 1]``) and is closed.  Whatever remains when one
heap empties is packed next-fit style on the surviving dimension
(``Pack_Remaining_S``/``Pack_Remaining_L``); Lemma 6 shows every closed disk
is then at least s-complete or l-complete, which yields Theorem 1's bound

.. math:: C_{PD} \\le \\frac{C^*}{1 - \\rho} + 1 .

The cost improvement over Chang-Hwang-Park (2005) is exactly the O(1)
eviction: their algorithm searches the open disk for an evictable element
(O(n) per overflow, O(n^2) total), see
:func:`repro.core.reference.pack_disks_quadratic`.

Lemma 7 in the compiled core
----------------------------
The packing loop runs in C (``repro_pack`` in ``repro/native/serve.c``,
reached through :func:`repro.native.pack`); this module validates the
items and builds its inputs.  Each heap starts as a sorted run: one
stable ``argsort`` puts the initial items in pop order (largest key
first, equal keys in input order, the heap's FIFO tie-break) in
O(n log n).  Items pushed back after an eviction go to a binary side
heap at O(log n) per push or pop, and a pop takes the side heap's top
only when its key is strictly larger than the run's head, so the pop
order is exactly that of one max-heap with FIFO ties.  Every item is
popped once plus once per eviction, and by Lemma 3 each eviction
completes a disk, so the whole pack stays O(n log n).  An open disk is
the paper's two stacks, linked item to item, plus two float sums,
updated in the same order as the paper's stacks.  ``Pack_Disks`` runs
as the one-disk case of ``Pack_Disks_v`` (:mod:`repro.core.grouped`).
Packing needs the compiled library like every simulation does: without
a C compiler it raises the library's :class:`~repro.errors.ConfigError`.
The heap-based packers in ``tests/core/pack_oracle.py`` are the
reference the routine is held to, bit for bit.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro import native
from repro.core.allocation import Allocation
from repro.core.item import EPS, ItemArray, PackItem
from repro.errors import PackingError

__all__ = ["pack_disks", "split_intensive"]


def split_intensive(items: Iterable[PackItem]) -> tuple:
    """Partition items into (size_intensive, load_intensive) lists.

    Size-intensive: ``s_i >= l_i`` (the paper's ``ST(F)``); load-intensive:
    ``l_i > s_i`` (``LD(F)``).
    """
    st: List[PackItem] = []
    ld: List[PackItem] = []
    for item in items:
        (st if item.size >= item.load else ld).append(item)
    return st, ld


def _check_items(items: ItemArray, rho: Optional[float]) -> float:
    """Validate item coordinates and ``rho``; return the ``rho`` to use.

    Coordinates must lie in ``[0, 1]`` (NaN fails every comparison, so it
    is rejected too); the first offending item is reported.  ``rho``
    defaults to the tight value ``max_i max(s_i, l_i)`` and must be finite
    and no smaller than it.
    """
    s, l = items.size, items.load
    ok = (s >= 0.0) & (s <= 1 + EPS) & (l >= 0.0) & (l <= 1 + EPS)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise PackingError(
            f"item {int(items.index[bad])} needs finite coordinates in [0, 1] "
            f"(s={float(s[bad]):.4f}, l={float(l[bad]):.4f})"
        )
    tight_rho = max(float(s.max()), float(l.max()), 0.0) if len(s) else 0.0
    if rho is None:
        return tight_rho
    if not math.isfinite(rho):
        raise PackingError(f"rho must be finite, got {rho}")
    if rho < tight_rho - EPS:
        raise PackingError(
            f"rho={rho} is below the largest item coordinate {tight_rho:.6f}"
        )
    return rho


def pack_disks(
    items: Sequence[PackItem],
    rho: Optional[float] = None,
) -> Allocation:
    """Pack normalized items onto the minimum-ish number of disks.

    Parameters
    ----------
    items:
        Normalized :class:`~repro.core.item.PackItem` elements (build them
        with :func:`~repro.core.item.make_items`), or an
        :class:`~repro.core.item.ItemArray`.
    rho:
        The bound on item coordinates used for the completeness test.
        Defaults to the tight value ``max_i max(s_i, l_i)``.  A larger
        ``rho`` closes disks earlier (fewer eviction events, looser packing);
        the Theorem 1 guarantee holds for any valid ``rho``.

    Returns
    -------
    Allocation
        Feasible on both dimensions; disk count within
        ``C*/(1 - rho) + 1`` of the optimum ``C*``.

    Raises
    ------
    PackingError
        If an item coordinate is NaN or outside ``[0, 1]``, or ``rho`` is
        not finite or is smaller than some item coordinate.
    ConfigError
        If the compiled core could not be built (no C compiler).
    """
    return _pack_groups(items, 1, rho, "pack_disks")


def _pack_groups(
    items: Sequence[PackItem], v: int, rho: Optional[float], name: str
) -> Allocation:
    """Pack ``items`` with ``v`` disks open at once, stepping them
    round-robin (``Pack_Disks_v``; ``v = 1`` is ``Pack_Disks``)."""
    arr = ItemArray.of(items)
    rho = _check_items(arr, rho)
    diff = arr.size - arr.load
    st = np.flatnonzero(arr.size >= arr.load)
    ld = np.flatnonzero(arr.size < arr.load)
    order, offsets = native.pack(
        arr.size,
        arr.load,
        st[np.argsort(-diff[st], kind="stable")],
        ld[np.argsort(diff[ld], kind="stable")],
        v,
        1 + EPS,
        1.0 - rho - EPS,
    )
    return Allocation.from_order(arr, order, offsets, name, rho)
