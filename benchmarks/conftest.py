"""Benchmark harness configuration.

Every figure/table of the paper has one bench module here.  The expensive
regenerations run exactly once per session (``benchmark.pedantic`` with one
round); the experiment's table is printed to the terminal (bypassing pytest
capture) and saved under ``benchmarks/results/``.

Scaling: the ``REPRO_BENCH_SCALE`` environment variable (default ``0.25``)
shrinks simulated duration / trace length while preserving rates and
distribution shapes.  Run with ``REPRO_BENCH_SCALE=1.0`` for the paper's
full configuration (a few extra minutes).
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
TESTS_SIM = Path(__file__).resolve().parents[1] / "tests" / "sim"


def bench_scale() -> float:
    """The session's scale factor (see module docstring)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture
def report(capsys):
    """Print an ExperimentResult to the real terminal and save its CSVs."""

    def _report(result) -> None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        result.save_csv(RESULTS_DIR)
        text = result.to_text()
        (RESULTS_DIR / f"{result.name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)

    return _report


@pytest.fixture
def oracle_core():
    """``with oracle_core():`` serves the fast kernel's cache-less
    read-only batches through the pure-Python loop the compiled walk
    replaced (``serve_oracle.serve_segment`` in ``tests/sim``); every other
    batch still takes the walk.  Same-machine floors time their fixed
    fast-run denominator this way, so each keeps measuring against the
    loop it was calibrated on."""
    sys.path.insert(0, str(TESTS_SIM))
    import serve_oracle

    from repro.sim import fastkernel

    compiled = fastkernel._serve_coupled

    def route(state, fid, t_all, is_write, starts, d_req, base_index,
              obs=None):
        if isinstance(state, fastkernel._CacheState) or is_write is not None:
            compiled(state, fid, t_all, is_write, starts, d_req, base_index,
                     obs)
            return
        bank = state.bank
        d = state.mapping[fid]
        serve_oracle.serve_segment(
            bank, d, t_all, state.sizes[fid] / bank.rate_a[d], starts
        )
        d_req[:] = d

    @contextmanager
    def swap():
        fastkernel._serve_coupled = route
        try:
            yield
        finally:
            fastkernel._serve_coupled = compiled

    return swap
