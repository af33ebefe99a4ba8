"""``Pack_Disks_v`` — the round-robin group variant (paper §3.2).

``Pack_Disks`` tends to place many files of similar size (adjacent in heap
order) on the same disk.  When a user requests a *batch* of similar-size
files at once — a pattern observed in the NERSC logs — all requests of the
batch queue on one disk and response time collapses.  The variant packs a
*group* of ``v`` disks concurrently, cycling between them round-robin, so
that similar-size files are spread over ``v`` disks and a batch fans out.

The paper reports ``v = 4`` as the sweet spot: larger groups no longer help
response time but dilute the load concentration that powers the energy
saving (§5.1).  ``pack_disks_grouped(items, v=1)`` reduces exactly to
``Pack_Disks``.

Both run on one routine in the compiled core, through
:func:`repro.core.packing._pack_groups`: its heaps are built by an
O(n log n) ``argsort`` and each push or pop of an evicted item costs
O(log n), so Lemma 7's O(n log n) bound carries over for fixed ``v``.
Without a C compiler it raises the library's
:class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.allocation import Allocation
from repro.core.item import PackItem
from repro.core.packing import _pack_groups
from repro.errors import PackingError

__all__ = ["pack_disks_grouped"]


def pack_disks_grouped(
    items: Sequence[PackItem],
    v: int = 4,
    rho: Optional[float] = None,
) -> Allocation:
    """Pack items onto disks in round-robin groups of ``v``.

    Parameters
    ----------
    items:
        Normalized :class:`~repro.core.item.PackItem` elements, or an
        :class:`~repro.core.item.ItemArray`.
    v:
        Group size (``v = 1`` is plain ``Pack_Disks``).
    rho:
        Coordinate bound for the completeness test; defaults to the tight
        per-input value.

    Returns
    -------
    Allocation
        Feasible on both dimensions.  The Theorem 1 disk-count bound is
        only proven for ``v = 1``; for ``v > 1`` the count can exceed it by
        up to ``v - 1`` partially filled disks per group boundary.
    """
    if v < 1:
        raise PackingError(f"group size v must be >= 1, got {v}")
    return _pack_groups(items, v, rho, f"pack_disks_v{v}")
