"""The fast kernel's per-disk serve loop in pure Python: the oracle the
compiled core is held to.

:func:`serve_segment` is the Python ``_serve_segment`` that
:mod:`repro.sim.fastkernel` ran before its serve loop moved to C
(:mod:`repro.native`): a stable per-disk grouping, then one hoisted
FIFO loop per disk (:func:`serve_batch`, formerly
``_DiskBank.serve_batch``) over the bank's list state.  The twin tests
compare the compiled core with it bit for bit, and the same-machine
benchmark floors swap it in to time the seed's own loop.  Kept out of
``src/`` on purpose — it is a test oracle, not a second implementation.
"""

from __future__ import annotations

from typing import List

import numpy as np


def serve_batch(bank, d: int, ts: list, trs: list) -> List[float]:
    """``bank.serve`` over one disk's FIFO run, with the per-disk state
    held in locals for the long runs between coupling points.  Same
    arithmetic: a one-descent-rung ladder (the classic drive) walks
    its gaps inline, deeper ladders go through ``bank._descend``."""
    out: List[float] = []
    append = out.append
    a = bank.avail[d]
    ld = bank.load[d]
    pt_d = bank.pt[d]
    pv_d = bank.pv[d]
    oh = bank.oh[d]
    T = bank.T
    descend = bank._descend
    fixed = bank.entries is not None
    if fixed:
        entries = bank.entries[d]
        e1 = entries[1]
    else:
        log = bank.gap_log[d].append
        ci = bank.ci
        rows = bank._th_rows
        k = bank.k
        cached = bank._entry_cache[d].get
        entries_for = bank._entries_for
    inline = bank.R[d] == 2
    if inline:
        D = bank.dn[d][1]
        U = bank.wk[d][1]
        sd_t = bank.down_t[d][1]
        sb_t = bank.park_t[d][1]
        su_t = bank.wake_t[d][1]
        n_up = bank.n_up[d]
        n_down = bank.n_down[d]
        if bank.park_spans is None:
            sd_log = sb_log = su_log = None
        else:
            sd_log = bank.down_spans[1].append
            sb_log = bank.park_spans[1].append
            su_log = bank.wake_spans[1].append
    for t, tr in zip(ts, trs):
        if t != pt_d:
            pt_d = t
            pv_d = a
        if t > a:
            if not fixed:
                idx = int(a / ci)
                th = rows[idx if idx <= k else k][d]
                log((t - a, th))
                entries = cached(th) or entries_for(d, th)
                e1 = entries[1]
            if t - a <= e1:
                s = t
            elif not inline:
                s = descend(d, a, t, entries)
            else:
                # _descend's walk for a single descent rung.
                sd = a + e1
                sd_end = sd + D
                n_down += 1
                sd_t += min(sd_end, T) - sd
                if sd_log is not None:
                    sd_log((d, sd, sd_end))
                if t >= sd_end:
                    sb_t += t - sd_end
                    if sb_log is not None:
                        sb_log((d, sd_end, t))
                    su = t
                else:
                    su = sd_end
                if su < T:
                    n_up += 1
                    su_t += min(su + U, T) - su
                    if su_log is not None:
                        su_log((d, su, su + U))
                s = su + U
        else:
            s = a
        append(s)
        a = s + oh + tr
        ld += oh + tr
    if inline:
        bank.down_t[d][1] = sd_t
        bank.park_t[d][1] = sb_t
        bank.wake_t[d][1] = su_t
        bank.n_up[d] = n_up
        bank.n_down[d] = n_down
    bank.avail[d] = a
    bank.load[d] = ld
    bank.pt[d] = pt_d
    bank.pv[d] = pv_d
    return out


def serve_segment(
    bank,
    d_seg: np.ndarray,
    t_seg: np.ndarray,
    tr_seg: np.ndarray,
    starts_out: np.ndarray,
) -> None:
    """Replay one read-only segment: stable per-disk grouping + batch FIFO.

    ``d_seg`` must be fully resolved (no ``-1``; callers validate); times
    are globally non-decreasing, so a stable sort on the disk index
    preserves each disk's arrival order.  ``starts_out`` (a view onto the
    segment's slice of the global starts array) is filled in place.
    """
    n = int(d_seg.size)
    if not n:
        return
    # A stable sort of 16-bit keys is a radix sort, several times faster
    # than on int64; a stable order is unique, so the result is the same.
    key = d_seg.astype(np.uint16) if len(bank.avail) <= 1 << 16 else d_seg
    order = np.argsort(key, kind="stable")
    d_s = d_seg[order]
    t_s = t_seg[order]
    tr_s = tr_seg[order]
    cuts = np.flatnonzero(np.diff(d_s)) + 1
    group_lo = np.concatenate(([0], cuts))
    group_hi = np.concatenate((cuts, [n]))
    seg_starts = np.empty(n, dtype=float)
    for lo, hi in zip(group_lo.tolist(), group_hi.tolist()):
        seg_starts[lo:hi] = serve_batch(
            bank, int(d_s[lo]), t_s[lo:hi].tolist(), tr_s[lo:hi].tolist()
        )
    starts_out[order] = seg_starts
