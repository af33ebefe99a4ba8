"""Building and loading the compiled serve core (:mod:`repro.native`).

Each case runs a fresh interpreter with its own ``HOME``, so the library
cache under ``~/.cache/repro/native`` starts empty: a cold build must give
the same simulated outputs as the library this process loaded, two
processes building at once must both load one valid library, an
unwritable cache falls back to a private build directory, and a host with
no C compiler gets a ``ConfigError`` from ``engine="fast"`` while the
event engine still runs, its P² estimates folded by the Python loop to
the compiled fold's bits.  Extra compiler flags (tests only) build a
library of their own, and ``serve.c`` builds warning-free.
"""

import ctypes
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import repro
import repro.native as native

SRC = str(Path(repro.__file__).resolve().parents[1])

#: One small run per engine named on the command line; prints a JSON
#: digest of each run's outputs (or the ConfigError it raised).  A name
#: ending in ``+slo`` runs ``slo_feedback`` control with streaming metrics,
#: whose P² estimates (the running p95 per interval and the streamed
#: percentiles) go into its digest.
SCRIPT = r"""
import hashlib, json, sys
import numpy as np
from repro.errors import ConfigError
from repro.system import StorageConfig, StorageSystem
from repro.workload.generator import SyntheticWorkloadParams, generate_workload

wl = generate_workload(SyntheticWorkloadParams(
    n_files=600, arrival_rate=4.0, duration=800.0, seed=3))
cfg = StorageConfig(num_disks=10, dpm_ladder="drpm4")
mapping = np.arange(wl.catalog.n) % 10
out = {}
for name in sys.argv[1:]:
    engine, _, mode = name.partition("+")
    run_cfg = cfg.with_overrides(engine=engine)
    if mode == "slo":
        run_cfg = run_cfg.with_overrides(
            dpm_policy="slo_feedback", slo_target=2.0, control_interval=50.0,
            metrics_mode="streaming")
    system = StorageSystem(wl.catalog, mapping, run_cfg)
    try:
        r = system.run(wl.stream)
    except ConfigError as exc:
        out[name] = "ConfigError: " + str(exc)
        continue
    if mode == "slo":
        h = hashlib.sha256(repr(r.response_stats).encode())
        h.update(repr([x.hex() for x in r.extra["dpm"]["p95_running"]]).encode())
        h.update(repr(r.extra["dpm"]["thresholds"]).encode())
    else:
        h = hashlib.sha256(r.response_times.tobytes())
    h.update(r.energy_per_disk.tobytes())
    h.update(repr(sorted(r.state_durations.items())).encode())
    out[name] = [h.hexdigest(), r.spinups, r.completions]
print(json.dumps(out))
"""


def _env(home, **extra):
    env = dict(os.environ, HOME=str(home), PYTHONPATH=SRC)
    env.pop("XDG_CACHE_HOME", None)
    env.update(extra)
    return env


def _start(home, *engines, **extra):
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT, *engines],
        env=_env(home, **extra),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _result(proc):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def _here(*engines):
    """The same digest from this process's already-loaded library."""
    argv = sys.argv
    buf = StringIO()
    try:
        sys.argv = ["-", *engines]
        with redirect_stdout(buf):
            exec(SCRIPT, {})
    finally:
        sys.argv = argv
    return json.loads(buf.getvalue())


def _cache_files(home):
    return sorted(p.name for p in (Path(home) / ".cache/repro/native").iterdir())


needs_compiler = pytest.mark.skipif(
    native.compiler() is None, reason="no C compiler on this host"
)


@needs_compiler
def test_cold_build_gives_identical_outputs(tmp_path):
    got = _result(_start(tmp_path, "fast"))
    assert got == _here("fast")
    (lib,) = _cache_files(tmp_path)
    assert lib.startswith("serve-") and lib.endswith(".so")


@needs_compiler
def test_concurrent_builds_load_one_valid_library(tmp_path):
    procs = [_start(tmp_path, "fast") for _ in range(2)]
    results = [_result(p) for p in procs]
    assert results[0] == results[1] == _here("fast")
    # One library, and no temporary file left behind by either builder.
    assert len(_cache_files(tmp_path)) == 1


@needs_compiler
def test_unwritable_cache_builds_privately(tmp_path):
    home = tmp_path / "not-a-directory"
    home.write_text("")
    assert _result(_start(home, "fast")) == _here("fast")


def test_no_compiler_fast_raises_event_runs(tmp_path):
    """The event engine runs without the library, and its P² estimates
    (folded by the Python loop there) equal the compiled fold's here."""
    empty = tmp_path / "bin"
    empty.mkdir()
    got = _result(_start(tmp_path, "fast", "event", "event+slo", PATH=str(empty)))
    assert got["fast"].startswith("ConfigError: engine='fast' needs a C compiler")
    assert "install one or use engine='event'" in got["fast"]
    assert isinstance(got["event"], list) and got["event"][2] > 0
    if native._LIB is not None:
        assert got["event+slo"] == _here("event+slo")["event+slo"]


@needs_compiler
def test_build_is_reused(tmp_path):
    cc = native.compiler()
    first = native.build(tmp_path, cc)
    stamp = first.stat().st_mtime_ns
    assert native.build(tmp_path, cc) == first
    assert first.stat().st_mtime_ns == stamp
    assert [p.name for p in tmp_path.iterdir()] == [first.name]


#: The warnings gate the CI sanitizer job also applies.
WARNING_FLAGS = ("-Wall", "-Wextra", "-Werror")


@needs_compiler
def test_extra_flags_build_their_own_library(tmp_path):
    """Extra flags are hashed into the name, so a warnings-as-errors
    build (which ``serve.c`` must pass) sits beside the normal one and
    loads with the same structures."""
    cc = native.compiler()
    plain = native.build(tmp_path, cc)
    strict = native.build(tmp_path, cc, WARNING_FLAGS)
    assert strict != plain
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [plain.name, strict.name]
    )
    lib = native.load(strict)
    assert lib.repro_coupled_args_size() == ctypes.sizeof(native.CoupledArgs)
