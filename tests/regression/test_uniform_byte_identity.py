"""Uniform configs must stay byte-identical across the fleet refactor.

``golden_uniform.json`` holds exact hex-float digests of the frozen
scenarios in :mod:`golden_cases`, recorded against the pre-refactor tree
(before per-disk capacity/threshold/spec vectors were threaded through
the dispatcher, placement, control and both kernels).  A uniform pool is
now represented internally as vectors of identical per-disk values;
IEEE-754 arithmetic on those is bit-identical to the old scalar code, so
every digest must match exactly — any mismatch is a real numeric
regression, not float noise.
"""

import json
import pathlib

import pytest

import golden_cases as gc

_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_uniform.json").read_text()
)


def _assert_golden(key, result):
    got = gc.summarize(result)
    want = _GOLDEN[key]
    assert sorted(got) == sorted(want), f"digest keys changed for {key}"
    for field in want:
        assert got[field] == want[field], (
            f"{key}: field {field!r} drifted from the pre-refactor value"
        )


_KEYS = pytest.mark.parametrize(
    "key", sorted(_GOLDEN), ids=lambda k: k.replace(":", "-")
)


@_KEYS
def test_uniform_output_is_byte_identical(key):
    name, engine = key.split(":")
    _assert_golden(key, gc.run_case(name, engine))


@_KEYS
def test_uniform_fleet_sugar_matches_spec(key):
    """``fleet=Fleet.uniform(spec)`` reproduces the digest recorded for
    ``spec=...`` on every case and engine: ladders, controllers, caches
    and chunked runs included."""
    from repro.disk.fleet import Fleet
    from repro.system import StorageConfig, StorageSystem

    name, engine = key.split(":")
    wl_kw, cfg_kw = gc.CASES[name]
    catalog, stream, mapping = gc._workload(**wl_kw)
    config = StorageConfig(
        engine=engine, fleet=Fleet.uniform(StorageConfig().spec), **cfg_kw
    )
    system = StorageSystem(
        catalog, mapping, config, num_disks=cfg_kw["num_disks"]
    )
    _assert_golden(key, system.run(stream))
