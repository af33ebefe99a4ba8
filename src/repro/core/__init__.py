"""The paper's primary contribution: energy-aware file allocation as 2DVPP.

Files are reduced to two-dimensional items ``(size_i, load_i)`` normalized by
the per-disk storage capacity ``S`` and load capacity ``L``; the allocation
problem — minimum number of disks such that each disk's total size and total
load stay below capacity — is the two-dimensional vector packing problem
(2DVPP, NP-complete).

* :func:`~repro.core.packing.pack_disks` — the paper's ``Pack_Disks``
  O(n log n) approximation (Algorithm 3) on item arrays: sorted runs plus
  side heaps, and the two-stack open disk,
* :func:`~repro.core.grouped.pack_disks_grouped` — the ``Pack_Disks_v``
  round-robin group variant (§3.2),
* :func:`~repro.core.reference.pack_disks_quadratic` — the O(n^2)
  Chang-Hwang-Park-style reference the paper improves on (identical output,
  linear-scan data structures),
* :mod:`~repro.core.baselines` — random / round-robin / first-fit /
  best-fit / FFD / next-fit comparison allocators,
* :mod:`~repro.core.bounds` — lower bounds and the Theorem 1 guarantee check.
"""

from repro.core.allocation import Allocation, PackedDisk
from repro.core.baselines import (
    best_fit,
    first_fit,
    first_fit_decreasing,
    next_fit,
    random_allocation,
    round_robin_allocation,
)
from repro.core.bounds import (
    continuous_lower_bound,
    optimality_gap,
    theorem1_guarantee,
    verify_allocation,
)
from repro.core.grouped import pack_disks_grouped
from repro.core.item import ItemArray, PackItem, make_items, rho_of
from repro.core.packing import pack_disks
from repro.core.partitioned import pack_disks_partitioned, size_class_classifier
from repro.core.reference import pack_disks_quadratic

__all__ = [
    "Allocation",
    "ItemArray",
    "PackItem",
    "PackedDisk",
    "best_fit",
    "continuous_lower_bound",
    "first_fit",
    "first_fit_decreasing",
    "make_items",
    "next_fit",
    "optimality_gap",
    "pack_disks",
    "pack_disks_grouped",
    "pack_disks_partitioned",
    "pack_disks_quadratic",
    "random_allocation",
    "size_class_classifier",
    "rho_of",
    "round_robin_allocation",
    "theorem1_guarantee",
    "verify_allocation",
]
