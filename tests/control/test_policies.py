"""Unit tests for the DPM policy registry and each policy's control law."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control import (
    DEFAULT_DPM_POLICY,
    DPM_POLICIES,
    DPMPolicy,
    IdleGaps,
    IntervalTelemetry,
    ThresholdController,
    controller_from,
    dpm_policy_names,
    make_dpm_policy,
    register_dpm_policy,
)
from repro.disk.specs import ST3500630AS
from repro.errors import ConfigError
from repro.system.config import StorageConfig

SPEC = ST3500630AS
BE = SPEC.breakeven_threshold()  # ~53.3 s


def idle_gaps(per_disk):
    """Per-disk lists of ``(gap, threshold)`` pairs as :class:`IdleGaps`
    columns, disk by disk."""
    return IdleGaps.from_rows(
        [(d, g, th) for d, pairs in enumerate(per_disk) for g, th in pairs]
    )


def telemetry(policy_thresholds, gaps=None, responses=(), slo_estimate=None):
    n = len(policy_thresholds)
    responses = np.asarray(responses, dtype=float)
    est = (
        float(np.percentile(responses, 95)) if responses.size else math.nan
    )
    return IntervalTelemetry(
        index=0,
        t_start=0.0,
        t_end=100.0,
        responses=responses,
        gaps=idle_gaps(gaps or ()),
        queue_depth=np.zeros(n),
        thresholds=np.asarray(policy_thresholds, dtype=float),
        p95_running=est,
        p99_running=est,
        slo_estimate=est if slo_estimate is None else slo_estimate,
    )


def fresh(name, num_disks=4, base=BE, slo_target=None):
    policy = make_dpm_policy(name)
    policy.reset(
        num_disks=num_disks,
        base_threshold=base,
        spec=SPEC,
        slo_target=slo_target,
        slo_percentile=95.0,
    )
    return policy


class TestRegistry:
    def test_expected_policies_registered(self):
        names = dpm_policy_names()
        assert names[0] == DEFAULT_DPM_POLICY == "fixed"
        for required in (
            "fixed",
            "adaptive_timeout",
            "exponential_predictive",
            "slo_feedback",
        ):
            assert required in names

    def test_make_by_name_and_passthrough(self):
        policy = make_dpm_policy("adaptive_timeout")
        assert policy.name == "adaptive_timeout"
        assert make_dpm_policy(policy) is policy
        assert make_dpm_policy(None).name == "fixed"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown DPM policy"):
            make_dpm_policy("does_not_exist")

    def test_duplicate_registration_rejected(self):
        class Dup(DPMPolicy):
            name = "fixed"

        with pytest.raises(ConfigError, match="duplicate"):
            register_dpm_policy(Dup)

    def test_only_fixed_is_static(self):
        statics = [n for n, cls in DPM_POLICIES.items() if cls.static]
        assert statics == ["fixed"]

    def test_controller_from_skips_static_policies(self):
        assert controller_from("fixed", 100.0, 4, BE, SPEC) is None
        ctl = controller_from("adaptive_timeout", 100.0, 4, BE, SPEC)
        assert isinstance(ctl, ThresholdController)


class TestConfigValidation:
    def test_defaults(self):
        cfg = StorageConfig()
        assert cfg.dpm_policy == "fixed"
        assert cfg.dpm_controller(cfg.resolved_fleet()) is None

    def test_dynamic_policy_builds_controller(self):
        cfg = StorageConfig(dpm_policy="adaptive_timeout")
        ctl = cfg.dpm_controller(cfg.resolved_fleet())
        assert ctl.policy.name == "adaptive_timeout"
        assert ctl.interval == cfg.control_interval
        assert ctl.thresholds.shape == (cfg.num_disks,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dpm_policy="nope"),
            dict(control_interval=0.0),
            dict(control_interval=-5.0),
            dict(slo_target=0.0),
            dict(slo_target=-1.0),
            dict(slo_percentile=0.0),
            dict(slo_percentile=100.0),
            dict(dpm_policy="slo_feedback"),  # needs slo_target
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            StorageConfig(**kwargs)

    def test_slo_feedback_with_target_accepted(self):
        cfg = StorageConfig(dpm_policy="slo_feedback", slo_target=10.0)
        ctl = cfg.dpm_controller(cfg.resolved_fleet(8))
        assert ctl.policy.slo_target == 10.0


class TestFixed:
    def test_static_and_identity_update(self):
        policy = fresh("fixed")
        assert policy.static
        init = policy.initial_thresholds()
        assert np.all(init == BE)
        out = policy.update(telemetry(init))
        assert np.array_equal(out, init)


class TestAdaptiveTimeout:
    def test_regrets_raise_threshold(self):
        policy = fresh("adaptive_timeout")
        # Gap just over the threshold with post-threshold residency far
        # below break-even: a regretted spin-down.
        gaps = [[(BE + 1.0, BE)], [], [], []]
        out = policy.update(telemetry(policy.initial_thresholds(), gaps))
        assert out[0] == pytest.approx(2 * BE)
        assert np.all(out[1:] == BE)

    def test_wastes_lower_threshold(self):
        policy = fresh("adaptive_timeout")
        # Idled through a break-even-worthy gap without sleeping.
        gaps = [[], [(BE * 0.9 + BE, BE * 2)], [], []]
        policy._th[:] = BE * 2
        out = policy.update(telemetry(policy.initial_thresholds(), gaps))
        assert out[1] == pytest.approx(BE)

    def test_balanced_interval_holds(self):
        policy = fresh("adaptive_timeout")
        # One regret (spun down for less than break-even) cancels one
        # waste (idled through a break-even-worthy gap): hold.
        gaps = [[(BE + 1.0, BE), (1.5 * BE, 2 * BE)], [], [], []]
        out = policy.update(telemetry(policy.initial_thresholds(), gaps))
        assert out[0] == pytest.approx(BE)

    def test_profitable_spin_down_is_not_a_regret(self):
        policy = fresh("adaptive_timeout")
        # Slept well past break-even: the spin-down paid off, no change.
        gaps = [[(2 * BE + 1.0, BE)], [], [], []]
        out = policy.update(telemetry(policy.initial_thresholds(), gaps))
        assert out[0] == pytest.approx(BE)

    def test_clamped_to_span(self):
        policy = fresh("adaptive_timeout")
        regret = [[(BE + 1.0, BE)], [], [], []]
        for _ in range(20):
            out = policy.update(telemetry(policy.initial_thresholds(), regret))
        assert out[0] == pytest.approx(BE * policy.span)
        waste = [[(BE * 10, BE * policy.span)], [], [], []]
        for _ in range(40):
            out = policy.update(telemetry(policy.initial_thresholds(), waste))
        assert out[0] == pytest.approx(BE / policy.span)

    def test_infinite_base_is_left_alone(self):
        policy = fresh("adaptive_timeout", base=math.inf)
        gaps = [[(BE * 10, math.inf)], [], [], []]
        out = policy.update(telemetry(policy.initial_thresholds(), gaps))
        assert math.isinf(out[0])


class TestExponentialPredictive:
    def test_prediction_seeds_at_breakeven(self):
        policy = fresh("exponential_predictive")
        out = policy.update(telemetry(policy.initial_thresholds()))
        # Seeded exactly at break-even: not *above* it, so no spin-down.
        assert np.all(out == BE)

    def test_long_gaps_trigger_immediate_spin_down(self):
        policy = fresh("exponential_predictive")
        gaps = [[(10 * BE, BE)], [], [], []]
        out = policy.update(telemetry(policy.initial_thresholds(), gaps))
        assert out[0] == 0.0
        assert np.all(out[1:] == BE)

    def test_short_gaps_fall_back_to_base(self):
        policy = fresh("exponential_predictive")
        long_gaps = [[(10 * BE, BE)], [], [], []]
        policy.update(telemetry(policy.initial_thresholds(), long_gaps))
        short_gaps = [[(0.1, 0.0)] * 8, [], [], []]
        out = policy.update(telemetry(policy.initial_thresholds(), short_gaps))
        assert out[0] == BE

    def test_ewma_recursion(self):
        policy = fresh("exponential_predictive")
        gaps = [[(100.0, BE), (200.0, BE)], [], [], []]
        policy.update(telemetry(policy.initial_thresholds(), gaps))
        expected = 0.5 * 200.0 + 0.5 * (0.5 * 100.0 + 0.5 * BE)
        assert policy._pred[0] == pytest.approx(expected)


# -- the array updates against the per-disk loops they replaced ---------------


def adaptive_oracle(policy, per_disk):
    """``AdaptiveTimeout.update`` as the per-disk loop over
    ``(gap, threshold)`` pairs, on the policy's own state."""
    for d, gaps in enumerate(per_disk):
        be = policy.breakevens[d]
        regrets = 0
        wastes = 0
        for gap, th in gaps:
            if gap > th:
                if gap - th < be:
                    regrets += 1
            elif gap > be:
                wastes += 1
        if regrets > wastes:
            policy._th[d] = min(policy._th[d] * policy.factor, policy._hi[d])
        elif wastes > regrets:
            policy._th[d] = max(policy._th[d] / policy.factor, policy._lo[d])
    return policy._th.copy()


def predictive_oracle(policy, per_disk):
    """``ExponentialPredictive.update`` as the per-disk EWMA loop."""
    alpha = policy.alpha
    for d, gaps in enumerate(per_disk):
        pred = policy._pred[d]
        for gap, _th in gaps:
            pred = alpha * gap + (1.0 - alpha) * pred
        policy._pred[d] = pred
    return np.where(
        policy._pred > policy.breakevens, 0.0, policy.base_thresholds
    )


#: Exactly representable values, so ``gap - th == breakeven`` ties occur.
GRID = [0.0, 0.5, 2.0, 8.0, 10.0, 18.0, 64.0]


@st.composite
def gap_runs(draw):
    """A pool (break-evens, base thresholds) and a few intervals of
    interleaved gap rows: ties at the threshold and at threshold +
    break-even, zero and infinite thresholds, empty intervals."""
    n = draw(st.integers(1, 4))
    bes = draw(st.lists(st.sampled_from([8.0, 10.0, BE]), min_size=n,
                        max_size=n))
    bases = draw(st.lists(st.sampled_from([0.0, 8.0, BE, math.inf]),
                          min_size=n, max_size=n))
    intervals = []
    for _ in range(draw(st.integers(1, 5))):
        rows = []
        for _ in range(draw(st.integers(0, 12))):
            d = draw(st.integers(0, n - 1))
            th = draw(st.sampled_from(GRID + [BE, math.inf]))
            gap = draw(st.one_of(
                st.just(th if math.isfinite(th) else 0.0),
                st.just(th + bes[d] if math.isfinite(th) else bes[d]),
                st.just(bes[d]),
                st.sampled_from(GRID),
                st.floats(0.0, 1e4),
            ))
            rows.append((d, gap, th))
        intervals.append(rows)
    return bes, bases, intervals


@pytest.mark.parametrize(
    "name, oracle",
    [("adaptive_timeout", adaptive_oracle),
     ("exponential_predictive", predictive_oracle)],
)
@settings(max_examples=150, deadline=None)
@given(run=gap_runs())
def test_array_update_matches_per_disk_loops(name, oracle, run):
    """The column updates equal the per-disk loops bit for bit, interval
    after interval, whatever the disks' interleaving."""
    bes, bases, intervals = run
    policy = fresh(name, num_disks=len(bes), base=np.array(bases))
    policy.breakevens = np.array(bes)
    policy._post_reset()
    for rows in intervals:
        twin = copy.deepcopy(policy)
        per_disk = [[(g, th) for d, g, th in rows if d == k]
                    for k in range(len(bes))]
        tele = telemetry(policy.initial_thresholds())
        tele.gaps = IdleGaps.from_rows(rows)
        out = policy.update(tele)
        expected = oracle(twin, per_disk)
        assert out.tobytes() == expected.tobytes()
        assert policy.__dict__.keys() == twin.__dict__.keys()
        for key, value in twin.__dict__.items():
            if isinstance(value, np.ndarray):
                assert getattr(policy, key).tobytes() == value.tobytes(), key


class TestSloFeedback:
    def test_requires_target(self):
        with pytest.raises(ConfigError, match="slo_target"):
            fresh("slo_feedback")

    def test_violation_relaxes(self):
        policy = fresh("slo_feedback", slo_target=10.0)
        out = policy.update(
            telemetry(policy.initial_thresholds(), slo_estimate=15.0)
        )
        assert np.all(out == pytest.approx(BE * policy.relax))

    def test_slack_tightens(self):
        policy = fresh("slo_feedback", slo_target=10.0)
        out = policy.update(
            telemetry(policy.initial_thresholds(), slo_estimate=2.0)
        )
        assert np.all(out == pytest.approx(BE / policy.tighten))

    def test_deadband_holds(self):
        policy = fresh("slo_feedback", slo_target=10.0)
        out = policy.update(
            telemetry(policy.initial_thresholds(), slo_estimate=9.0)
        )
        assert np.all(out == pytest.approx(BE))

    def test_nan_estimate_holds(self):
        policy = fresh("slo_feedback", slo_target=10.0)
        out = policy.update(
            telemetry(policy.initial_thresholds(), slo_estimate=math.nan)
        )
        assert np.all(out == pytest.approx(BE))

    def test_clamps(self):
        policy = fresh("slo_feedback", slo_target=10.0)
        for _ in range(20):
            out = policy.update(
                telemetry(policy.initial_thresholds(), slo_estimate=99.0)
            )
        assert np.all(out == pytest.approx(BE * policy.span))
        for _ in range(60):
            out = policy.update(
                telemetry(policy.initial_thresholds(), slo_estimate=0.1)
            )
        assert np.all(out == pytest.approx(BE / policy.span))


class TestThresholdController:
    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigError, match="interval"):
            ThresholdController("adaptive_timeout", 0.0, 4, BE, SPEC)

    def test_records_one_row_per_interval_and_traces(self):
        ctl = ThresholdController("adaptive_timeout", 100.0, 2, BE, SPEC)
        gaps = [[(BE + 1.0, BE)], []]
        ctl.advance(
            0.0, 100.0, np.array([1.0, 2.0]), idle_gaps(gaps), np.zeros(2)
        )
        ctl.finalize(
            100.0, 150.0, np.array([3.0]), idle_gaps([[], []]), np.zeros(2)
        )
        assert len(ctl.records) == 2
        extra = ctl.extra()
        assert extra["policy"] == "adaptive_timeout"
        assert extra["completions"] == [2, 1]
        assert extra["t_end"] == [100.0, 150.0]
        # The second row's thresholds reflect the first update's decision.
        assert extra["thresholds"][1][0] == pytest.approx(2 * BE)
        assert extra["power"] is None  # no power attached

    def test_attach_power_shape_checked(self):
        ctl = ThresholdController("adaptive_timeout", 100.0, 2, BE, SPEC)
        ctl.finalize(0.0, 50.0, np.empty(0), idle_gaps([]), np.zeros(2))
        with pytest.raises(Exception):
            ctl.attach_power(np.zeros((3, 2)))
        ctl.attach_power(np.full((1, 2), 9.3))
        assert ctl.extra()["power"] == [[9.3, 9.3]]
