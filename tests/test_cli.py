"""Tests for the ``python -m repro`` command-line interface."""

import pytest

import repro.__main__ as cli
from repro.__main__ import main
from repro.errors import PackingError


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig5", "table2", "complexity"):
            assert name in out


class TestInfo:
    def test_info_mentions_paper(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Otoo" in out
        assert "Pack_Disks" in out


class TestRun:
    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "53.3" in out

    def test_run_with_csv_export(self, capsys, tmp_path):
        code = main(
            ["run", "quality", "--scale", "0.1", "--csv-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pack_disks" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_placement_with_write_policy(self, capsys):
        code = main(
            [
                "run", "placement", "--scale", "0.02",
                "--engine", "fast", "--sweep-cache", "off",
                "--write-policy", "round_robin",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "round_robin power" in out
        # Restricted to one policy: no other registry entry is swept.
        assert "spinning_best_fit power" not in out
        assert "first_fit_spinning" not in out

    def test_write_policy_rejected_for_other_experiments(self, capsys):
        assert main(
            ["run", "table2", "--write-policy", "round_robin"]
        ) == 2
        assert "not applicable" in capsys.readouterr().err

    def test_seed_override(self, capsys):
        assert main(["run", "complexity", "--scale", "0.2", "--seed", "5"]) == 0

    def test_segregation_runs_at_smoke_scale(self, capsys):
        # At R = 8 a catalog of 1,000 files cannot place its hottest file.
        assert main(["run", "segregation", "--scale", "0.02"]) == 0
        assert "pack_segregated" in capsys.readouterr().out

    def test_run_all_reports_typed_error_and_continues(
        self, capsys, monkeypatch
    ):
        from repro.experiments import table2_disk

        def broken(scale):
            raise PackingError("file 0 cannot be packed")

        monkeypatch.setattr(
            cli,
            "_experiment_registry",
            lambda: {"broken": broken, "table2": table2_disk.run},
        )
        assert main(["run", "all"]) == 1
        captured = capsys.readouterr()
        assert "broken: PackingError: file 0 cannot be packed" in captured.err
        assert "1 of 2 experiment(s) failed: broken" in captured.err
        assert "53.3" in captured.out  # table2 still ran after the failure

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
