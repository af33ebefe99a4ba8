"""Pluggable online dynamic-power-management (DPM) policies.

Every run in the repo used to fix the spin-down idleness threshold up
front; this registry supplies the *online* half of the paper's trade-off —
policies that adjust the per-disk threshold from observed behavior, the
way real systems navigate power vs. response time (TimeTrader exploits
latency slack subject to a tail-latency target; adaptive spin-down
timeouts go back to Douglis, Krishnan & Bershad; exponential-average idle
prediction to Hwang & Wu).

Policies decide once per **control interval**: at each boundary the
controller (:mod:`repro.control.controller`) hands the policy an
:class:`~repro.control.telemetry.IntervalTelemetry` and receives the
per-disk threshold vector for the next interval.  Thresholds govern idle
gaps by their value *at the drain instant* (the moment the disk's queue
empties): a gap that began under an old threshold keeps it, exactly like
the event drive's already-armed idleness timer.  Both simulation engines
honor the same semantics, so every registered policy simulates
identically (~1e-9) on the event and fast kernels.

Registered policies
-------------------

======================  =======================================================
name                    rule
======================  =======================================================
fixed                   the pre-control behavior: one static threshold
                        (``StorageConfig.idleness_threshold``), never updated;
                        engines skip the control loop entirely, byte-identical
                        to the fixed-threshold code path
adaptive_timeout        per-disk multiplicative increase/decrease: raise the
                        threshold when the interval saw more spin-up *regrets*
                        (spun down, then slept less than break-even) than idle
                        *wastes* (idled through a gap longer than break-even
                        without sleeping); lower it in the opposite case
exponential_predictive  per-disk EWMA prediction of the next idle period
                        (Hwang-Wu exponential average); spin down immediately
                        (threshold 0) while the predicted idle exceeds the
                        break-even time, else fall back to the base threshold
slo_feedback            array-wide feedback controller: maximize power saving
                        subject to a response-time percentile target — relax
                        (multiply) the shared threshold while the running
                        P² percentile estimate violates the target, tighten
                        (divide) it while the estimate sits comfortably below
======================  =======================================================

Use :func:`make_dpm_policy` to instantiate by name and
:func:`dpm_policy_names` to iterate the registry (the cross-engine
equivalence grid in ``tests/control/test_dpm_equivalence.py`` does, so new
policies are covered automatically).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple, Type, Union

import numpy as np

from repro.control.telemetry import IntervalTelemetry
from repro.errors import ConfigError

__all__ = [
    "DEFAULT_DPM_POLICY",
    "DPMPolicy",
    "DPM_POLICIES",
    "dpm_policy_names",
    "make_dpm_policy",
    "register_dpm_policy",
]

#: The pre-control behavior; what ``StorageConfig.dpm_policy`` defaults to.
DEFAULT_DPM_POLICY = "fixed"


class DPMPolicy:
    """Base class: one per-disk threshold decision per control interval.

    Subclasses set ``name`` (the registry key) and implement
    :meth:`update`.  :meth:`reset` is called once per simulation run with
    the pool size and configuration-derived constants; policies initialize
    their cross-interval state in :meth:`_post_reset`.

    Class attributes
    ----------------
    static:
        ``True`` when thresholds can never change after :meth:`reset`
        (the ``fixed`` policy).  Engines skip the control loop entirely
        for static policies, so they stay byte-identical to the
        fixed-threshold code path.
    requires_slo:
        ``True`` when the policy is meaningless without a response-time
        target; ``StorageConfig`` validation enforces ``slo_target``.
    """

    name: str = ""
    static: bool = False
    requires_slo: bool = False

    def reset(
        self,
        num_disks: int,
        base_threshold,
        spec,
        slo_target: Optional[float] = None,
        slo_percentile: float = 95.0,
    ) -> None:
        """Prepare per-run state.

        ``base_threshold`` is the configured static threshold (the spec's
        break-even value by default) and seeds every policy's initial
        vector; ``spec`` supplies the break-even time and transition
        costs.  Both accept either one value for the whole pool (the
        uniform array) or one per disk (heterogeneous fleets:
        ``base_threshold`` as a length-``num_disks`` vector, ``spec`` as
        a sequence of :class:`~repro.disk.specs.DiskSpec`) — policies
        score and clamp every disk against *its own* break-even and base
        threshold, so a mixed-generation fleet is steered per drive.
        """
        if num_disks < 1:
            raise ConfigError("num_disks must be >= 1")
        self.num_disks = int(num_disks)
        base = np.asarray(base_threshold, dtype=float)
        if base.ndim == 0:
            base = np.full(self.num_disks, float(base), dtype=float)
        elif base.shape != (self.num_disks,):
            raise ConfigError(
                f"base_threshold must be scalar or one value per disk, "
                f"got shape {base.shape} for {self.num_disks} disks"
            )
        #: Per-disk configured thresholds (uniform pools: one repeated value).
        self.base_thresholds = base.copy()
        if hasattr(spec, "breakeven_threshold"):
            specs = (spec,) * self.num_disks
        else:
            specs = tuple(spec)
            if len(specs) != self.num_disks:
                raise ConfigError(
                    f"spec must be one DiskSpec or one per disk, got "
                    f"{len(specs)} for {self.num_disks} disks"
                )
        self.specs = specs
        #: Per-disk break-even times (the energy floor each disk is scored
        #: against).
        self.breakevens = np.array(
            [s.breakeven_threshold() for s in specs], dtype=float
        )
        # Representative (disk 0) scalars, kept for homogeneous callers.
        self.base_threshold = float(self.base_thresholds[0])
        self.spec = specs[0]
        self.breakeven = float(self.breakevens[0])
        self.slo_target = None if slo_target is None else float(slo_target)
        self.slo_percentile = float(slo_percentile)
        self._post_reset()

    def _post_reset(self) -> None:
        """Hook for subclass state (default: stateless, nothing to do)."""

    def initial_thresholds(self) -> np.ndarray:
        """Per-disk thresholds for the first control interval."""
        return self.base_thresholds.copy()

    def update(self, telemetry: IntervalTelemetry) -> np.ndarray:
        """Per-disk thresholds for the next interval (must be ``>= 0``)."""
        raise NotImplementedError


#: name -> policy class.  Populated by :func:`register_dpm_policy`.
DPM_POLICIES: Dict[str, Type[DPMPolicy]] = {}


def register_dpm_policy(cls: Type[DPMPolicy]) -> Type[DPMPolicy]:
    """Class decorator adding a policy to the registry (keyed by ``name``)."""
    if not cls.name:
        raise ConfigError(f"{cls.__name__} must set a non-empty name")
    if cls.name in DPM_POLICIES:
        raise ConfigError(f"duplicate DPM policy {cls.name!r}")
    DPM_POLICIES[cls.name] = cls
    return cls


def dpm_policy_names() -> Tuple[str, ...]:
    """All registered policy names (registration order; default first)."""
    return tuple(DPM_POLICIES)


def make_dpm_policy(
    policy: Union[str, DPMPolicy, None] = None,
) -> DPMPolicy:
    """Instantiate a policy by registry name (``None`` = ``fixed``).

    A ready-made :class:`DPMPolicy` instance passes through unchanged
    (callers own its lifecycle; one instance must not be shared between
    concurrently running simulations).
    """
    if policy is None:
        policy = DEFAULT_DPM_POLICY
    if isinstance(policy, DPMPolicy):
        return policy
    try:
        cls = DPM_POLICIES[policy]
    except KeyError:
        raise ConfigError(
            f"unknown DPM policy {policy!r}; choose from {dpm_policy_names()}"
        ) from None
    return cls()


# -- the registered strategies --------------------------------------------------


@register_dpm_policy
class FixedThreshold(DPMPolicy):
    """The pre-control behavior: one static threshold, never updated."""

    name = "fixed"
    static = True

    def update(self, telemetry: IntervalTelemetry) -> np.ndarray:
        # Never reached by the engines (static policies skip the control
        # loop) but well-defined for direct controller use in tests.
        return np.asarray(telemetry.thresholds, dtype=float)


@register_dpm_policy
class AdaptiveTimeout(DPMPolicy):
    """Per-disk multiplicative-adjust timeout (Douglis et al. style).

    Each interval, each disk's closed idle gaps are scored against the
    threshold that governed them:

    * **regret** — the disk spun down (``gap > threshold``) but the
      post-threshold portion was shorter than the break-even time, so the
      transition cost more energy than standby saved;
    * **waste** — the disk idled through a gap longer than break-even
      without spinning down (``gap <= threshold`` and ``gap >
      breakeven``), burning idle watts a sleep would have saved.

    More regrets than wastes → the threshold was too eager: multiply it by
    ``factor``.  More wastes than regrets → too lazy: divide.  Clamped to
    ``[base/16, base*16]``; an infinite base threshold (spin-down
    disabled) is left untouched.  Every disk is scored against its *own*
    break-even time and clamped against its *own* base threshold, so a
    heterogeneous fleet's cheap-transition drives settle on tighter
    timeouts than its expensive ones.
    """

    name = "adaptive_timeout"
    factor = 2.0
    span = 16.0

    def _post_reset(self) -> None:
        self._th = self.base_thresholds.copy()
        self._lo = self.base_thresholds / self.span
        self._hi = self.base_thresholds * self.span

    def initial_thresholds(self) -> np.ndarray:
        return self._th.copy()

    def update(self, telemetry: IntervalTelemetry) -> np.ndarray:
        d, gap, th = telemetry.gaps
        be = self.breakevens[d]
        down = gap > th
        n = self.num_disks
        regrets = np.bincount(d[down & (gap - th < be)], minlength=n)
        wastes = np.bincount(d[~down & (gap > be)], minlength=n)
        self._th = np.where(
            regrets > wastes,
            np.minimum(self._th * self.factor, self._hi),
            np.where(
                wastes > regrets,
                np.maximum(self._th / self.factor, self._lo),
                self._th,
            ),
        )
        return self._th.copy()


@register_dpm_policy
class ExponentialPredictive(DPMPolicy):
    """EWMA idle-period prediction (Hwang & Wu's exponential average).

    Each disk keeps an exponentially weighted moving average of its
    observed idle-gap lengths (``pred = alpha*gap + (1-alpha)*pred``,
    seeded at the disk's own break-even time).  While the predicted next
    idle period exceeds that disk's break-even it spins down
    *immediately* (threshold 0) — the predictive shortcut that beats any
    timeout when gaps are long and regular; otherwise the disk's base
    threshold applies.
    """

    name = "exponential_predictive"
    alpha = 0.5

    def _post_reset(self) -> None:
        self._pred = self.breakevens.copy()

    def update(self, telemetry: IntervalTelemetry) -> np.ndarray:
        alpha = self.alpha
        gaps = telemetry.gaps
        pred = self._pred.tolist()
        for d, gap in zip(gaps.disks.tolist(), gaps.gaps.tolist()):
            pred[d] = alpha * gap + (1.0 - alpha) * pred[d]
        self._pred = np.array(pred)
        return np.where(
            self._pred > self.breakevens, 0.0, self.base_thresholds
        )


@register_dpm_policy
class SloFeedback(DPMPolicy):
    """SLO-constrained threshold control: save power subject to a tail target.

    An array-wide feedback loop in the spirit of TimeTrader's slack
    exploitation: the controller watches the *running* P² estimate of the
    configured response-time percentile (the very quantity the run is
    judged on) and each interval

    * **relaxes** — multiplies the shared threshold by ``relax`` — while
      the estimate violates ``slo_target`` (fewer spin-downs, fewer
      spin-up waits, latency recovers at the cost of idle power);
    * **tightens** — divides by ``tighten`` — while the estimate sits
      below ``margin * slo_target`` (spend the latency slack on deeper
      power saving).

    Gains are asymmetric (relax fast, tighten slowly) so violations are
    corrected promptly and the threshold settles just tight enough to
    meet the target — typically between the points of any coarse static
    grid.  Clamped per disk to ``[base/32, base*32]``: the feedback
    signal is array-wide, but on a heterogeneous fleet each disk's
    threshold scales around its *own* base (infinite bases — spin-down
    disabled — are left untouched).
    """

    name = "slo_feedback"
    requires_slo = True
    relax = 2.0
    tighten = 1.25
    margin = 0.8
    span = 32.0

    def _post_reset(self) -> None:
        if self.slo_target is None:
            raise ConfigError(
                "slo_feedback requires an slo_target (seconds at the "
                "configured slo_percentile)"
            )
        self._th = self.base_thresholds.copy()
        self._lo = self.base_thresholds / self.span
        self._hi = self.base_thresholds * self.span

    def initial_thresholds(self) -> np.ndarray:
        return self._th.copy()

    def update(self, telemetry: IntervalTelemetry) -> np.ndarray:
        estimate = telemetry.slo_estimate
        if not math.isnan(estimate):
            finite = ~np.isinf(self._th)
            if estimate > self.slo_target:
                self._th[finite] = np.minimum(
                    self._th[finite] * self.relax, self._hi[finite]
                )
            elif estimate < self.margin * self.slo_target:
                self._th[finite] = np.maximum(
                    self._th[finite] / self.tighten, self._lo[finite]
                )
        return self._th.copy()
