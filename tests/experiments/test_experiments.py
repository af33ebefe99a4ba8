"""Smoke + shape tests for every experiment harness at miniature scale.

These run the same code paths as the full benchmarks with tiny grids, and
assert the *paper-shape* properties that survive downscaling (orderings and
signs rather than magnitudes).
"""

import pytest

from repro.experiments import (
    ablations,
    fig2_power_saving,
    fig3_response_ratio,
    fig4_tradeoff,
    fig5_idleness_power,
    fig6_idleness_response,
    groupsize_sweep,
    table1_workload,
    table2_disk,
)

# Shared tiny grids; the memoized sweeps make fig3/fig6 reuse fig2/fig5 runs.
RATES = (1.0, 6.0)
LOADS = (0.5, 0.8)
SWEEP_KW = dict(
    scale=0.05, seed=101, rates=RATES, loads=LOADS,
    num_disks=60, n_files=12_000,
)
THRESHOLDS = (0.1, 1.5)
TRACE_KW = dict(scale=0.03, seed=101, threshold_hours=THRESHOLDS)


class TestTables:
    def test_table2_reproduces_paper_rows(self):
        result = table2_disk.run()
        assert "53.3 secs" in result.tables["table2"]
        assert "Seagate ST3500630AS" in result.tables["table2"]
        assert any("53.3" in n for n in result.notes)

    def test_table1_structure(self):
        result = table1_workload.run(scale=0.02)
        assert "Table 1" in result.tables["table1"]
        assert "Zipf-like" in result.tables["table1"]


class TestRateSweepFigures:
    @pytest.fixture(scope="class")
    def fig2(self):
        return fig2_power_saving.run(**SWEEP_KW)

    def test_fig2_saving_positive_at_low_rate(self, fig2):
        bundle = fig2.bundles["power_saving"]
        for series in bundle.series.values():
            low_rate_saving = series.y[series.x.index(1.0)]
            assert low_rate_saving > 0.2

    def test_fig2_has_curve_per_load(self, fig2):
        assert set(fig2.bundles["power_saving"].series) == {
            "L=50%", "L=80%"
        }

    def test_fig3_reuses_sweep_and_reports_ratios(self, fig2):
        result = fig3_response_ratio.run(**SWEEP_KW)
        bundle = result.bundles["response_ratio"]
        ys = [y for s in bundle.series.values() for y in s.y]
        assert all(0.05 < y < 20 for y in ys)
        # Memoization: the expensive part was already computed for fig2.
        assert result.wall_seconds < 5.0

    def test_fig2_csv_export(self, fig2, tmp_path):
        paths = fig2.save_csv(tmp_path)
        assert len(paths) == 1
        assert paths[0].exists()


class TestFig4:
    def test_tradeoff_directions(self):
        result = fig4_tradeoff.run(
            scale=0.05, seed=101, rate=4.0, loads=(0.5, 0.9),
            num_disks=60, n_files=12_000,
        )
        bundle = result.bundles["tradeoff"]
        power = bundle.series["Power (W)"].y
        disks = result.bundles["disks"].series["pack_disks"].y
        # Higher L -> fewer disks and no more power.
        assert disks[1] <= disks[0]
        assert power[1] <= power[0] * 1.05
        # Analytic overlay present.
        assert "Power analytic (W)" in bundle.series


class TestTraceFigures:
    @pytest.fixture(scope="class")
    def fig5(self):
        return fig5_idleness_power.run(**TRACE_KW)

    def test_fig5_rnd_saving_falls_with_threshold(self, fig5):
        rnd = fig5.bundles["power_saving"].series["RND"]
        assert rnd.y[0] > rnd.y[-1]

    def test_fig5_pack_flatter_than_rnd(self, fig5):
        bundle = fig5.bundles["power_saving"]
        rnd = bundle.series["RND"]
        pack = bundle.series["Pack_Disk"]
        rnd_drop = rnd.y[0] - rnd.y[-1]
        pack_drop = pack.y[0] - pack.y[-1]
        assert pack_drop < rnd_drop

    def test_fig5_pack_beats_rnd_at_large_threshold(self, fig5):
        bundle = fig5.bundles["power_saving"]
        assert (
            bundle.series["Pack_Disk"].y[-1] > bundle.series["RND"].y[-1]
        )

    def test_fig6_reports_all_configs(self, fig5):
        result = fig6_idleness_response.run(**TRACE_KW)
        assert set(result.bundles["response"].series) == {
            "RND", "Pack_Disk", "Pack_Disk4", "RND+LRU", "Pack_Disk4+LRU",
        }
        assert result.wall_seconds < 5.0  # memoized


class TestGroupsizeSweep:
    def test_sweep_runs_and_reports(self):
        result = groupsize_sweep.run(
            scale=0.02, seed=101, group_sizes=(1, 4), threshold_hours=0.5
        )
        bundle = result.bundles["sweep"]
        assert bundle.series["power saving"].x == [1.0, 4.0]
        assert all(y > 0 for y in bundle.series["disks used"].y)


class TestAblations:
    def test_complexity_outputs_identical_and_timed(self):
        result = ablations.run_complexity(
            scale=1.0, seed=3, sizes=(200, 400)
        )
        assert any("bit-identical across sizes: True" in n for n in result.notes)
        runtime = result.bundles["runtime"]
        assert len(runtime.series["pack_disks (heap, C)"]) == 2

    def test_quality_table_contains_all_allocators(self):
        result = ablations.run_quality(scale=0.2, seed=3)
        table = result.tables["quality"]
        for name in ("pack_disks", "first_fit", "next_fit"):
            assert name in table
        assert any("satisfied" in n for n in result.notes)

    def test_correlation_ablation_runs(self):
        result = ablations.run_correlation(scale=0.03, seed=101, rate=4.0)
        saving = result.bundles["correlation"].series["saving"]
        assert len(saving) == 3

    def test_cache_policy_ablation(self):
        result = ablations.run_cache_policies(scale=0.02, seed=101)
        table = result.tables["cache"]
        for policy in ("(none)", "lru", "lfu", "fifo", "clock"):
            assert policy in table

    def test_segregation_ablation(self):
        result = ablations.run_segregation(scale=0.04, seed=101, rate=4.0)
        assert "pack_segregated" in result.tables["segregation"]


class TestExperimentResult:
    def test_to_text_includes_everything(self):
        result = table2_disk.run()
        text = result.to_text()
        assert "table2_disk" in text
        assert "notes:" in text
