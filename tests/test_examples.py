"""Smoke tests running every shipped example as a subprocess.

These guarantee the documented entry points actually run on a fresh
install (tiny parameters keep them fast).
"""

import re
import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=240):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr}"
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example(
            "quickstart.py", "--files", "2000", "--duration", "400",
            "--rate", "1", "--disks", "20",
        )
        assert "Power saving of Pack_Disks vs random" in out

    def test_capacity_planning(self):
        out = run_example(
            "capacity_planning.py", "--files", "3000", "--target", "40",
        )
        assert "Recommended:" in out
        assert "Validating" in out

    def test_nersc_trace_replay(self):
        out = run_example("nersc_trace_replay.py", "--scale", "0.02")
        assert "Pack_Disk4" in out
        assert "RND+LRU" in out

    def test_tradeoff_explorer(self):
        out = run_example(
            "tradeoff_explorer.py", "--scale", "0.05", "--files", "6000",
        )
        assert "Array power vs load constraint" in out
        assert "simulated" in out and "analytic" in out

    def test_extensions_tour(self):
        out = run_example("extensions_tour.py")
        assert "Diurnal load cycle" in out
        assert "Multi-state DPM" in out
        routed = re.search(r"writes routed: (\d+)", out)
        assert routed is not None and int(routed.group(1)) > 0

    def test_quickstart_shows_positive_saving(self):
        out = run_example(
            "quickstart.py", "--files", "8000", "--duration", "600",
            "--rate", "1", "--disks", "40",
        )
        line = next(
            l for l in out.splitlines() if "Power saving" in l
        )
        saving = float(line.split(":")[1].strip().rstrip("%"))
        assert saving > 0
