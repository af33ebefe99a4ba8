"""Building and loading the compiled serve core (:mod:`repro.native`).

Each case runs a fresh interpreter with its own ``HOME``, so the library
cache under ``~/.cache/repro/native`` starts empty: a cold build must give
the same simulated outputs as the library this process loaded (the
event engine's P² estimates and scheduler releases included), two
processes building at once must both load one valid library, an
unwritable cache falls back to a private build directory, and on a host
with no C compiler ``import repro`` still works while both engines raise
a ``ConfigError`` naming the compiler.  Extra compiler flags (tests only)
build a library of their own, and ``serve.c`` builds warning-free.
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
#: percentiles) go into its digest.  ``+defer`` adds ``slack_defer`` to
#: that, and ``+coalesce`` runs ``spinup_coalesce``, both on a lighter
#: stream, where the disks idle long enough for the rules to hold
#: requests; their digests also hold the scheduler's releases of the
#: whole stream in one block, and they report how many requests it held.
SCRIPT = r"""
import hashlib, json, sys
import numpy as np
from repro.errors import ConfigError
from repro.system import StorageConfig, StorageSystem
from repro.system.scheduling import build_scheduling_setup
from repro.workload.generator import SyntheticWorkloadParams, generate_workload

wl = generate_workload(SyntheticWorkloadParams(
    n_files=600, arrival_rate=4.0, duration=800.0, seed=3))
light = generate_workload(SyntheticWorkloadParams(
    n_files=600, arrival_rate=0.2, duration=2000.0, seed=3))
cfg = StorageConfig(num_disks=10, dpm_ladder="drpm4")
mapping = np.arange(wl.catalog.n) % 10
out = {}
for name in sys.argv[1:]:
    engine, _, mode = name.partition("+")
    run_cfg = cfg.with_overrides(engine=engine)
    if mode in ("slo", "defer"):
        run_cfg = run_cfg.with_overrides(
            dpm_policy="slo_feedback", slo_target=2.0, control_interval=50.0,
            metrics_mode="streaming")
    run_wl = wl
    if mode == "defer":
        run_wl = light
        run_cfg = run_cfg.with_overrides(
            slo_target=60.0, scheduler="slack_defer",
            scheduler_params={"max_hold": 30.0})
    elif mode == "coalesce":
        run_wl = light
        run_cfg = run_cfg.with_overrides(
            scheduler="spinup_coalesce", scheduler_params={"max_hold": 20.0},
            metrics_mode="streaming")
    system = StorageSystem(run_wl.catalog, mapping, run_cfg)
    try:
        r = system.run(run_wl.stream)
    except ConfigError as exc:
        out[name] = "ConfigError: " + str(exc)
        continue
    if r.response_stats is not None:
        h = hashlib.sha256(repr(r.response_stats).encode())
    else:
        h = hashlib.sha256(r.response_times.tobytes())
    if mode in ("slo", "defer"):
        h.update(repr([x.hex() for x in r.extra["dpm"]["p95_running"]]).encode())
        h.update(repr(r.extra["dpm"]["thresholds"]).encode())
    h.update(r.energy_per_disk.tobytes())
    h.update(repr(sorted(r.state_durations.items())).encode())
    out[name] = [h.hexdigest(), r.spinups, r.completions]
    if mode in ("defer", "coalesce"):
        sched = run_cfg.request_scheduler()
        sched.reset(build_scheduling_setup(
            run_cfg, system.fleet, run_wl.catalog.sizes, mapping))
        times = np.asarray(run_wl.stream.times, dtype=float)
        rel = np.asarray(sched.release_many(
            times, np.asarray(run_wl.stream.file_ids), None, None), dtype=float)
        h.update(rel.tobytes())
        out[name] = [h.hexdigest(), r.spinups, r.completions,
                     int((rel > times).sum())]
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


#: The script's runs whose P² folds and scheduler releases a cold build
#: must reproduce.
CONTROLLED = ("event+slo", "event+defer", "event+coalesce")


@needs_compiler
def test_cold_build_gives_identical_outputs(tmp_path):
    got = _result(_start(tmp_path, "fast", *CONTROLLED))
    assert got == _here("fast", *CONTROLLED)
    for name in ("event+defer", "event+coalesce"):
        assert got[name][3] > 0, f"{name} held no request"
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


def test_no_compiler_raises_on_both_engines(tmp_path):
    """The script imports ``repro`` and builds its workloads, then each
    engine's run raises before it simulates anything."""
    empty = tmp_path / "bin"
    empty.mkdir()
    got = _result(_start(tmp_path, "fast", "event", PATH=str(empty)))
    for engine in ("fast", "event"):
        assert got[engine].startswith(
            "ConfigError: simulation needs a C compiler"
        ), got[engine]
        assert "looked for" in got[engine] and "cc" in got[engine]


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
