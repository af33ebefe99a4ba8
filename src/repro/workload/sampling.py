"""Exact inverse-CDF draws of file ids from popularity weights.

Every stream in this package draws its file ids i.i.d. from a popularity
vector.  ``Generator.choice(n, size, p=p)`` does that with a binary search
of the cumulative distribution per draw (``cdf.searchsorted(u, "right")``
over unsorted uniforms).  :class:`PopularitySampler` takes ``choice``'s
own steps -- ``p = w / w.sum()``, ``cdf = p.cumsum(); cdf /= cdf[-1]``,
``u = rng.random(count)`` -- and answers the search through a guide
table, so its ids equal ``choice``'s bit for bit and the generator ends
in the same state.

Guide table.  With ``K = 2**m`` buckets, ``u * K`` and ``cdf * K`` are
exact, so ``g[j] = #{i : cdf[i] <= j / K}`` counts exactly and brackets
the answer for every ``u`` in bucket ``b = floor(u * K)``:
``g[b] <= cdf.searchsorted(u, "right") <= g[b + 1]``.  A bucket that
holds no cdf step (``g[b] == g[b + 1]``) answers with ``g[b]``; only the
draws that land in one of the at most ``n`` stepped buckets are searched.

The sampler is pure NumPy, so streams generate on hosts without a C
compiler.
"""

from __future__ import annotations

import math
import operator

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError

__all__ = ["PopularitySampler", "guide_table", "guided_search"]

#: Largest table: 2**19 int64 entries (4 MiB).
_MAX_BITS = 19
#: Buckets per weight at most.  32 draws about 5% faster on the canonical
#: catalog, but its table adds its own size to a run's peak RSS.
_MAX_BUCKETS_PER_WEIGHT = 16


def guide_table(cdf: np.ndarray, bits: int) -> np.ndarray:
    """Per-bucket answers of ``cdf.searchsorted(u, "right")``.

    Entry ``b < 2**bits`` is the answer for every ``u`` in
    ``[b / K, (b + 1) / K)`` when that bucket holds no cdf step, else
    ``-1``; the last entry answers ``u == 1``.  ``cdf`` must be
    non-decreasing in ``[0, 1]``.
    """
    k = 1 << bits
    # g[j] = #{i : cdf[i] <= j / k}; ceil(cdf * k) is the first such j.
    g = np.bincount(np.ceil(cdf * k).astype(np.intp), minlength=k + 1)
    np.cumsum(g, out=g)
    head = g[:-1]
    head[head != g[1:]] = -1
    return g


def guided_search(
    cdf: np.ndarray, table: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """``cdf.searchsorted(u, "right")`` as int64, for ``u`` in ``[0, 1]``,
    through a :func:`guide_table` of ``cdf``."""
    # floor(u * K) straight into the output, then each slot is replaced by
    # its table entry (take reads an index before it writes that slot), so
    # no full-size temporary is made beyond choice's own.
    ids = np.multiply(
        u, table.size - 1, out=np.empty(u.shape, np.int64), casting="unsafe"
    )
    table.take(ids, out=ids, mode="clip")
    miss = np.flatnonzero(ids < 0)
    if miss.size:
        ids[miss] = cdf.searchsorted(u[miss], "right")
    return ids


def _table_bits(n: int, count: int) -> int:
    """Table size for ``count`` draws over ``n`` weights.

    A draw misses the table with probability at most ``n / K`` and then
    pays a binary search, while building costs ``O(K)``; the two balance
    near ``K = 4 * sqrt(n * count)``.
    """
    k = min(4.0 * math.sqrt(n * count), _MAX_BUCKETS_PER_WEIGHT * n)
    return min(_MAX_BITS, max(0, math.ceil(math.log2(max(k, 1.0)))))


def _checked_count(count: int) -> int:
    try:
        count = operator.index(count)
    except TypeError:
        raise ConfigError(
            f"count must be an integer, got {count!r}"
        ) from None
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    return count


class PopularitySampler:
    """I.i.d. draws of indices ``0..n-1`` in proportion to ``weights``.

    ``draw(count, rng)`` returns
    ``rng.choice(n, size=count, p=weights / weights.sum())`` bit for bit,
    as int64, and leaves ``rng`` in the same state.  The weights are
    checked before they are normalised: a 1-D, finite, non-negative
    vector with a finite, non-zero sum, else :class:`ConfigError`.
    Empty weights are accepted, but only zero draws can be taken from
    them.  The guide table is built on the first draw, sized for its
    count, and reused by later draws (one table per chunked stream).
    """

    def __init__(self, weights: npt.ArrayLike) -> None:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise ConfigError(
                f"popularity weights must be 1-D, got shape {w.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(w) | (w < 0))
        if bad.size:
            i = int(bad[0])
            raise ConfigError(
                "popularity weights must be finite and non-negative: "
                f"weight {i} is {w[i]}"
            )
        with np.errstate(over="ignore"):
            total = w.sum()
        if not np.isfinite(total):
            raise ConfigError("popularity weights overflow: their sum is inf")
        if w.size and total == 0:
            raise ConfigError("popularity weights sum to zero")
        self.n = int(w.size)
        self._cdf = w
        if self.n:
            self._cdf = (w / total).cumsum()
            self._cdf /= self._cdf[-1]
        self._table = None

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` i.i.d. indices, consuming ``count`` uniforms of ``rng``."""
        count = _checked_count(count)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if not self.n:
            raise ConfigError(
                f"cannot draw {count} ids from empty popularity weights"
            )
        u = rng.random(count)
        if self._table is None:
            self._table = guide_table(self._cdf, _table_bits(self.n, count))
        return guided_search(self._cdf, self._table, u)
