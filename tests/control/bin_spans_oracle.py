"""Span binning in NumPy: the oracle :func:`repro.native.bin_spans` is
held to bit for bit.

This is the function the fast kernel binned its per-interval power trace
with before the binning moved into the compiled core (formerly
``repro.control.telemetry.bin_spans``): clip, one ``searchsorted`` per
span end, then three ``np.add.at`` passes (spans inside one window, the
first and then the last partial windows of crossing spans) and the
cumsum'd +1/-1 cover counts times the window widths.  Kept out of
``src/`` on purpose — it is a test oracle, not a second implementation.
"""

from __future__ import annotations

import numpy as np


def bin_spans(disks, starts, ends, edges, num_disks: int) -> np.ndarray:
    """Overlap seconds of ``[start, end)`` spans with contiguous windows
    ``[edges[k], edges[k+1])``, as a ``(K, num_disks)`` matrix."""
    edges = np.asarray(edges, dtype=float)
    n_windows = int(edges.size) - 1
    out = np.zeros((max(n_windows, 0), num_disks), dtype=float)
    d = np.asarray(disks, dtype=np.int64)
    if not d.size or n_windows <= 0:
        return out
    s = np.clip(np.asarray(starts, dtype=float), edges[0], edges[-1])
    e = np.clip(np.asarray(ends, dtype=float), edges[0], edges[-1])
    keep = e > s
    d, s, e = d[keep], s[keep], e[keep]
    if not d.size:
        return out
    i_s = np.clip(
        np.searchsorted(edges, s, side="right") - 1, 0, n_windows - 1
    )
    i_e = np.clip(
        np.searchsorted(edges, e, side="right") - 1, 0, n_windows - 1
    )
    same = i_s == i_e
    np.add.at(out, (i_s[same], d[same]), e[same] - s[same])
    cross = ~same
    if cross.any():
        dc, sc, ec = d[cross], s[cross], e[cross]
        lo_w, hi_w = i_s[cross], i_e[cross]
        np.add.at(out, (lo_w, dc), edges[lo_w + 1] - sc)
        # A span ending exactly on an edge contributes 0 here — harmless.
        np.add.at(out, (hi_w, dc), ec - edges[hi_w])
        # Fully covered windows (lo_w < k < hi_w): +1/-1 difference
        # markers cumsum'd along the window axis, times window widths.
        cover = np.zeros((n_windows + 1, num_disks), dtype=float)
        np.add.at(cover, (lo_w + 1, dc), 1.0)
        np.add.at(cover, (hi_w, dc), -1.0)
        out += np.cumsum(cover[:-1], axis=0) * np.diff(edges)[:, None]
    return out
