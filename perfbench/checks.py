"""Output checks: every run the benchmark makes is checked, and a run
that raises or fails a check counts toward ``failed``.

The checks share no code with the engines: energy is recomputed from
``state_durations`` and the ``DiskSpec`` power fields, residency tiling
is summed here, and the event engine is compared against the fast one.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from repro.disk.power import DiskState

__all__ = [
    "DEFAULT_SEED",
    "Ledger",
    "digest",
    "oracle_failures",
    "recorded_failures",
    "reference_failures",
    "sim_metrics",
]

#: The seed whose simulated metrics are recorded in ``expected.json``.
DEFAULT_SEED = 0
EXPECTED = Path(__file__).resolve().parent / "expected.json"
#: The repository's cross-engine tolerance; also absorbs last-bit
#: differences between hosts in the recorded-values check.
REL_TOL = 1e-9


class Ledger:
    """Counts runs attempted and runs that raised or failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, label: str, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{label}: {m}" for m in failures)

    def run(self, label: str, fn, check):
        """Call ``fn()``; record its run with ``check(result)``'s
        failures, or as failed if either raises.  Returns the result, or
        ``None`` when the run raised."""
        try:
            result = fn()
            failures = check(result)
        except Exception as exc:  # a broken run is a failed run, not a crash
            self.record(label, [f"raised {type(exc).__name__}: {exc}"])
            return None
        self.record(label, failures)
        return result


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def digest(result) -> str:
    """A hash of every simulated output of a run, to prove two runs of
    the same inputs bit-identical."""
    h = hashlib.sha256()
    for arr in (
        result.energy_per_disk,
        result.response_times,
        result.requests_per_disk,
        result.spinups_per_disk,
        result.final_mapping,
    ):
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())
    scalars = [
        result.energy, result.arrivals, result.completions, result.spinups,
        result.spindowns,
        sorted((str(k), v) for k, v in result.state_durations.items()),
    ]
    if result.response_stats is not None:
        scalars.append(repr(result.response_stats))
    if result.cache_stats is not None:
        scalars.append(repr(result.cache_stats))
    h.update(repr(scalars).encode())
    return h.hexdigest()


def sim_metrics(result, nospin) -> dict:
    """The simulated end-to-end metrics (deterministic for a seed)."""
    return {
        "sim_power_saving": 1.0 - result.energy / nospin.energy,
        "sim_mean_response_s": result.mean_response,
        "sim_p95_response_s": result.p95_response,
    }


def _tiling_failures(result) -> list:
    """All residencies together cover ``num_disks x T``."""
    total = math.fsum(result.state_durations.values())
    expected = result.num_disks * result.duration
    if not _close(total, expected):
        return [f"residencies sum to {total!r}, expected {expected!r}"]
    return []


def _energy_failures(result, spec) -> list:
    """Energy equals sum(residency x spec power), from the spec fields."""
    if not all(isinstance(s, DiskState) for s in result.state_durations):
        return ["two-state run reported non-DiskState residencies"]
    energy = math.fsum(
        getattr(spec, f"{state.value}_power") * seconds
        for state, seconds in result.state_durations.items()
    )
    if not _close(energy, result.energy):
        return [f"energy {result.energy!r} != sum(residency x power) "
                f"{energy!r}"]
    return []


def _drive_tiling_failures(system, horizon: float) -> list:
    """Event engine: each drive's own residencies tile ``[0, T]``."""
    failures = []
    for d, drive in enumerate(system.array.disks):
        total = math.fsum(drive.state_durations().values())
        if not _close(total, horizon):
            failures.append(f"disk {d} residencies sum to {total!r}")
    return failures


def reference_failures(inputs, result, system=None, two_state=True) -> list:
    """Checks on the reference run of a workload."""
    failures = []
    if result.completions < 0.99 * result.arrivals:
        failures.append(
            f"only {result.completions}/{result.arrivals} requests completed"
        )
    failures += _tiling_failures(result)
    if two_state:
        failures += _energy_failures(result, inputs.config.spec)
    if system is not None and inputs.config.engine == "event":
        failures += _drive_tiling_failures(system, result.duration)
    return failures


def oracle_failures(event, fast) -> list:
    """The event engine and the fast kernel agree on the same inputs."""
    failures = []
    for what in ("energy", "mean_response"):
        a, b = getattr(event, what), getattr(fast, what)
        if not _close(a, b):
            failures.append(f"{what}: event {a!r} vs fast {b!r}")
    for what in ("spinups", "completions"):
        a, b = getattr(event, what), getattr(fast, what)
        if a != b:
            failures.append(f"{what}: event {a} vs fast {b}")
    return failures


def recorded_failures(name: str, seed: int, metrics: dict) -> list:
    """The default seed's simulated metrics equal the recorded values."""
    if seed != DEFAULT_SEED:
        return []
    recorded = json.loads(EXPECTED.read_text())[name]
    return [
        f"{key} = {metrics[key]!r}, recorded {value!r}"
        for key, value in recorded.items()
        if not _close(metrics[key], value)
    ]
