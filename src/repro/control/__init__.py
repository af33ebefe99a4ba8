"""Online dynamic-power-management control (the decision half of the
trade-off).

The paper's subject is the *trade-off* between power saving and response
time, yet a fixed idleness threshold hard-codes one point on it.  This
package supplies the online control loop real systems use to navigate the
curve: pluggable DPM policies (:mod:`repro.control.policies`) that adjust
per-disk spin-down thresholds each control interval from streaming
telemetry (:mod:`repro.control.telemetry`), orchestrated by a shared
:class:`~repro.control.controller.ThresholdController` that both
simulation engines drive with byte-identical observations.

Select a policy per run via ``StorageConfig(dpm_policy=...)`` (plus
``control_interval``, ``slo_target`` and ``slo_percentile``); the
``slo_frontier`` experiment sweeps the registry against static thresholds
across load and SLO-target grids.
"""

from repro.control.controller import (
    EventControlLoop,
    ThresholdController,
    controller_from,
)
from repro.control.policies import (
    DEFAULT_DPM_POLICY,
    DPM_POLICIES,
    DPMPolicy,
    dpm_policy_names,
    make_dpm_policy,
    register_dpm_policy,
)
from repro.control.telemetry import (
    IdleGaps,
    IntervalRecord,
    IntervalTelemetry,
    P2Quantile,
)

__all__ = [
    "DEFAULT_DPM_POLICY",
    "DPM_POLICIES",
    "DPMPolicy",
    "EventControlLoop",
    "IdleGaps",
    "IntervalRecord",
    "IntervalTelemetry",
    "P2Quantile",
    "ThresholdController",
    "controller_from",
    "dpm_policy_names",
    "make_dpm_policy",
    "register_dpm_policy",
]
