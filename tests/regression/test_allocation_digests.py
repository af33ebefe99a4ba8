"""Pack_Disks allocations are pinned to digests recorded before the heap
behind them was rebuilt on :mod:`heapq`.

Every simulated output and golden starts from an allocation, and one
changed tie in the heaps' extraction order would move the mapping.  The
digests cover the disk count, the file-to-disk mapping and each disk's
placement order, for ``pack`` and ``pack_v4`` on two catalogs:

* the canonical catalog of ``perfbench`` (8,000 Zipf files from the
  catalog seed that ``perfbench`` derives from its seed 0, R = 8 req/s,
  L = 0.7);
* the paper-size catalog (the 40,000-file Table 1 defaults, R = 6 req/s,
  L = 0.7).

The catalog is drawn before the request stream, so a one-second stream
leaves it unchanged.
"""

import hashlib

import numpy as np
import pytest

from repro.system import StorageConfig, allocate
from repro.workload.generator import SyntheticWorkloadParams, generate_workload

_CANONICAL_SEED = int(np.random.SeedSequence(0).generate_state(2)[0])

CATALOGS = {
    "canonical": (
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=1.0, seed=_CANONICAL_SEED
        ),
        8.0,
    ),
    "paper40k": (SyntheticWorkloadParams(duration=1.0), 6.0),
}

#: ``disks:sha256`` recorded with the hand-written binary heap.
DIGESTS = {
    ("canonical", "pack"): (
        "91:dffada8ef1e0c81a05bc42e043530d1a9db777c0fd068165ae1f899da992070d"
    ),
    ("canonical", "pack_v4"): (
        "92:97671937777717bc4ddaf2f38990895a475b566e53a5429ea1f51d3ad823d9e3"
    ),
    ("paper40k", "pack"): (
        "34:012e2a8b6e76c1b2000e27223948cc25c2551b0b8c21cf3258201a8f4cc58fae"
    ),
    ("paper40k", "pack_v4"): (
        "36:8d8cdbae1b5f9a4c3d71af5a1df6764af8370755136e3e98dfcc44bef98f5304"
    ),
}


def allocation_digest(allocation, n_files):
    """``disks:sha256`` over the mapping and each disk's placement order."""
    h = hashlib.sha256()
    h.update(np.asarray(allocation.mapping(n_files), dtype=np.int64).tobytes())
    for disk in allocation.disks:
        order = [-1] + [item.index for item in disk.items]
        h.update(np.array(order, dtype=np.int64).tobytes())
    return f"{allocation.num_disks}:{h.hexdigest()}"


@pytest.mark.parametrize("catalog", sorted(CATALOGS))
def test_pack_allocations_match_recorded_digests(catalog):
    params, rate = CATALOGS[catalog]
    cat = generate_workload(params).catalog
    cfg = StorageConfig(num_disks=100, load_constraint=0.7)
    for policy in ("pack", "pack_v4"):
        got = allocation_digest(allocate(cat, policy, cfg, rate), cat.n)
        assert got == DIGESTS[catalog, policy], (catalog, policy)
