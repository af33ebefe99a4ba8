"""Per-request twins of the deferring request schedulers.

The reference :mod:`repro.system.scheduling` rules decide a whole block of
arrivals per call (``release_many``): ``slack_defer`` and
``spinup_coalesce`` in the compiled core (:func:`repro.native.release_core`),
``batch_release`` in its Python loop.  These classes keep the earlier
one-request-at-a-time form of the three rules, with their own copy of the
two-state disk forecast, so a test can hold every batched path to them
release by release.  Kept out of ``src/`` on purpose — it is a test
oracle, not a second implementation."""

from __future__ import annotations

import math

import numpy as np


def next_epoch(t: float, window: float) -> float:
    """The first multiple of ``window`` at or after ``t`` in doubles
    (C's ``ceil``; infinite when ``t / window`` overflows)."""
    x = t / window
    return (float(math.ceil(x)) if math.isfinite(x) else x) * window


class OracleDiskModel:
    """Lindley + two spin states, one scalar request at a time."""

    def __init__(self, setup) -> None:
        self.avail = [0.0] * setup.num_disks
        self._oh = np.asarray(setup.access_overhead, dtype=float).tolist()
        self._rate = np.asarray(setup.transfer_rate, dtype=float).tolist()
        self._th = np.asarray(setup.threshold, dtype=float).tolist()
        self._down = np.asarray(setup.spindown_time, dtype=float).tolist()
        self._up = np.asarray(setup.spinup_time, dtype=float).tolist()

    def projected_start(self, d: int, t: float) -> float:
        a = self.avail[d]
        if t <= a:
            return a
        if t - a > self._th[d]:
            sd_end = a + self._th[d] + self._down[d]
            return (t if t >= sd_end else sd_end) + self._up[d]
        return t

    def sleeping(self, d: int, t: float) -> bool:
        return t >= self.avail[d] + self._th[d] + self._down[d]

    def service_time(self, d: int, size: float) -> float:
        return self._oh[d] + size / self._rate[d]

    def commit(self, d: int, t: float, size: float) -> None:
        self.avail[d] = self.projected_start(d, t) + self.service_time(d, size)


class OracleSlackDefer:
    """``slack_defer``: defer onto the next budget epoch when the
    forecast response still fits the budget and the controller is not
    stressed."""

    def __init__(self, margin=0.8, max_hold=30.0, target=None, window=None):
        self.params = {
            "margin": margin, "max_hold": max_hold,
            "target": target, "window": window,
        }

    def reset(self, setup) -> None:
        target = self.params["target"]
        if target is None:
            target = setup.slo_target
        self._budget = float(self.params["margin"] * target)
        self._max_hold = float(self.params["max_hold"])
        window = self.params["window"]
        if window is None:
            window = self._budget
        self._window = float(window)
        self._mapping = setup.mapping.tolist()
        self._sizes = setup.sizes.tolist()
        self._model = OracleDiskModel(setup)

    def release(self, t, file_id, kind, slo_estimate=None) -> float:
        mapping = self._mapping
        d = mapping[file_id] if 0 <= file_id < len(mapping) else -1
        if d < 0:
            return t
        model = self._model
        service = model.service_time(d, self._sizes[file_id])
        r = t
        stressed = slo_estimate is not None and slo_estimate > self._budget
        if not stressed:
            epoch = max(t, next_epoch(t, self._window))
            # An infinite epoch (t / window overflows) passes through.
            if epoch > t and epoch - t <= self._max_hold and epoch < math.inf:
                projected = (model.projected_start(d, epoch) - t) + service
                if projected <= self._budget:
                    r = epoch
        model.avail[d] = model.projected_start(d, r) + service
        return r


class OracleBatchRelease:
    """``batch_release``: the next ``window`` epoch, capped at
    ``max_hold`` (so ``t + max_hold`` when the epoch is infinite)."""

    def __init__(self, window=10.0, max_hold=30.0):
        self.params = {"window": window, "max_hold": max_hold}

    def reset(self, setup) -> None:
        self._window = float(self.params["window"])
        self._max_hold = float(self.params["max_hold"])

    def release(self, t, file_id, kind, slo_estimate=None) -> float:
        epoch = max(t, next_epoch(t, self._window))
        return min(epoch, t + self._max_hold)


class OracleSpinupCoalesce:
    """``spinup_coalesce``: park arrivals for a sleeping disk and release
    the group together at its deadline."""

    def __init__(self, max_hold=45.0):
        self.params = {"max_hold": max_hold}

    def reset(self, setup) -> None:
        self._max_hold = float(self.params["max_hold"])
        self._mapping = setup.mapping.tolist()
        self._sizes = setup.sizes.tolist()
        self._model = OracleDiskModel(setup)
        self._group_until = [-math.inf] * setup.num_disks

    def release(self, t, file_id, kind, slo_estimate=None) -> float:
        mapping = self._mapping
        d = mapping[file_id] if 0 <= file_id < len(mapping) else -1
        if d < 0:
            return t
        model = self._model
        if t >= self._group_until[d]:
            self._group_until[d] = -math.inf
        if self._group_until[d] > t:
            r = float(self._group_until[d])
        elif model.sleeping(d, t):
            r = t + self._max_hold
            self._group_until[d] = r
        else:
            r = t
        model.commit(d, r, self._sizes[file_id])
        return r


#: Registry name -> oracle class.
ORACLES = {
    "slack_defer": OracleSlackDefer,
    "batch_release": OracleBatchRelease,
    "spinup_coalesce": OracleSpinupCoalesce,
}
