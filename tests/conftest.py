"""Shared fixtures and hypothesis configuration for the test suite.

(The sweep-cache isolation fixture lives in the repo-root conftest so the
benchmarks get it too.)
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import repro.native as native

# Extra compiler flags for the compiled serve core, for a sanitizer or
# warnings build (see the CI sanitizer job): every test then runs on a
# library built with them, kept under its own name next to the normal one.
_EXTRA_CFLAGS = tuple(os.environ.get("REPRO_NATIVE_TEST_CFLAGS", "").split())
if _EXTRA_CFLAGS:
    native._LIB = native.load(
        native.build(native.cache_dir(), native.compiler(), _EXTRA_CFLAGS)
    )

# CI boxes vary wildly; deadlines cause flaky failures on shared runners.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng():
    """A deterministic generator for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def env():
    """A fresh simulation environment."""
    from repro.sim import Environment

    return Environment()


@pytest.fixture
def spec():
    """The paper's Table 2 disk."""
    from repro.disk import ST3500630AS

    return ST3500630AS


@pytest.fixture
def small_catalog():
    """A 200-file Zipf catalog, large enough to be non-degenerate."""
    from repro.workload import FileCatalog

    return FileCatalog.from_zipf(n=200, s_max=2e9)
