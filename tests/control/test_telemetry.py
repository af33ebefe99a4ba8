"""Property-style tests for the P² percentile estimator and span binning."""

import math

import numpy as np
import pytest

from repro.control import P2Quantile
from repro.native import bin_spans
from repro.errors import ConfigError


def _sample(rng, dist, n):
    if dist == "uniform":
        return rng.uniform(0.0, 100.0, n)
    if dist == "exponential":
        return rng.exponential(10.0, n)
    return rng.lognormal(1.0, 1.0, n)


class TestP2Quantile:
    def test_invalid_percentile_rejected(self):
        for bad in (0.0, 100.0, -5.0, 120.0):
            with pytest.raises(ConfigError):
                P2Quantile(bad)

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(95.0).value)

    def test_small_n_is_exact_empirical_percentile(self):
        # Below five observations the estimate is the linear-interpolated
        # empirical percentile, bit-equal to np.percentile.
        xs = [3.0, 1.0, 7.0, 2.0]
        est = P2Quantile(95.0)
        for i, x in enumerate(xs):
            est.add(x)
            assert est.value == float(np.percentile(xs[: i + 1], 95.0))

    @pytest.mark.parametrize("dist", ["uniform", "exponential", "lognormal"])
    @pytest.mark.parametrize("pct", [50.0, 90.0, 95.0, 99.0])
    def test_tracks_numpy_percentile_on_random_streams(self, dist, pct):
        """Property-style: across seeds, the streaming estimate lands close
        to the exact batch percentile.

        Tolerances are ~4x the worst observed error per (distribution,
        percentile) family: a few permil on uniform, up to several percent
        at the heavy lognormal tail — P² is approximate by construction.
        """
        rel_tol = {"uniform": 0.03, "exponential": 0.15, "lognormal": 0.20}[
            dist
        ]
        if dist == "lognormal" and pct == 99.0:
            rel_tol = 0.5  # heavy tail: worst observed ~12%
        for seed in range(8):
            rng = np.random.default_rng(seed)
            xs = _sample(rng, dist, 4_000)
            est = P2Quantile(pct)
            for x in xs:
                est.add(x)
            true = float(np.percentile(xs, pct))
            assert est.value == pytest.approx(true, rel=rel_tol), (
                dist,
                pct,
                seed,
            )

    def test_estimate_stays_bracketed(self):
        rng = np.random.default_rng(7)
        xs = _sample(rng, "lognormal", 1_000)
        est = P2Quantile(95.0)
        for x in xs:
            est.add(x)
            assert xs.min() - 1e-12 <= est.value <= xs.max() + 1e-12

    def test_count_tracks_observations(self):
        est = P2Quantile(95.0)
        for i in range(10):
            est.add(float(i))
        assert est.count == 10

    def test_constant_stream(self):
        est = P2Quantile(95.0)
        for _ in range(100):
            est.add(4.2)
        assert est.value == pytest.approx(4.2)

    def test_deterministic_in_order(self):
        # Two estimators fed the same sequence agree exactly — the
        # property the cross-engine telemetry contract relies on.
        rng = np.random.default_rng(3)
        xs = _sample(rng, "exponential", 500)
        a, b = P2Quantile(95.0), P2Quantile(95.0)
        for x in xs:
            a.add(x)
            b.add(x)
        assert a.value == b.value


class TestBinSpans:
    def test_overlap_splits_across_windows(self):
        # One span [5, 25) on disk 1 over windows [0,10) and [10,30).
        out = bin_spans(
            np.array([1]), np.array([5.0]), np.array([25.0]),
            edges=[0.0, 10.0, 30.0], num_disks=3,
        )
        assert out.shape == (2, 3)
        assert out[0].tolist() == [0.0, 5.0, 0.0]
        assert out[1].tolist() == [0.0, 15.0, 0.0]

    def test_span_covering_interior_windows_fully(self):
        # [5, 37) over [0,10),[10,20),[20,30),[30,40): two partial window
        # contributions plus fully covered interiors via the cumsum path.
        out = bin_spans(
            np.array([0]), np.array([5.0]), np.array([37.0]),
            edges=[0.0, 10.0, 20.0, 30.0, 40.0], num_disks=1,
        )
        assert out[:, 0].tolist() == [5.0, 10.0, 10.0, 7.0]

    def test_matches_bruteforce_on_random_spans(self):
        rng = np.random.default_rng(5)
        edges = np.sort(rng.uniform(0.0, 100.0, 7))
        starts = rng.uniform(-10.0, 110.0, 300)
        ends = starts + rng.uniform(0.0, 60.0, 300)
        disks = rng.integers(0, 3, 300)
        out = bin_spans(disks, starts, ends, edges, 3)
        for k in range(len(edges) - 1):
            for d in range(3):
                mask = disks == d
                expect = np.clip(
                    np.minimum(ends[mask], edges[k + 1])
                    - np.maximum(starts[mask], edges[k]),
                    0.0,
                    None,
                ).sum()
                assert out[k, d] == pytest.approx(expect)

    def test_conserves_total_span_time(self):
        rng = np.random.default_rng(11)
        starts = rng.uniform(0.0, 90.0, 200)
        ends = starts + rng.uniform(0.0, 10.0, 200)
        disks = rng.integers(0, 4, 200)
        edges = np.linspace(0.0, 100.0, 11)
        out = bin_spans(disks, starts, ends, edges, 4)
        assert out.sum() == pytest.approx(
            np.clip(np.minimum(ends, 100.0) - starts, 0.0, None).sum()
        )

    def test_empty_spans(self):
        out = bin_spans(
            np.empty(0, np.int64), np.empty(0), np.empty(0),
            edges=[0.0, 10.0], num_disks=2,
        )
        assert out.shape == (1, 2)
        assert not out.any()
