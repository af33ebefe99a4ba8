"""The randomized cross-engine differential harness.

``test_random_config_agrees`` is the primary engine-equivalence oracle:
each seed expands into a random valid scenario (disks x streams x cache x
write policy x DPM policy x ladder — see ``diffgen.build_case``) and both
kernels must agree to 1e-9 *and* satisfy the physical invariants.  On
failure the assertion message carries a paste-able reproduction recipe
(see README.md in this directory).

Budget knobs (environment variables):

``REPRO_DIFF_CASES``
    Number of seeded cases (default 200 — the CI budget).
``REPRO_DIFF_BASE_SEED``
    First seed (default 20260726).  Pin a single failing seed with
    ``REPRO_DIFF_CASES=1 REPRO_DIFF_BASE_SEED=<seed>``.
``REPRO_DIFF_OBSERVER_CASES``
    Seeds for the observer-passivity axis (default 40): each case runs
    both engines observed and unobserved and requires *bit* identity.
``REPRO_DIFF_SCHED_CASES``
    Seeds for the request-scheduler axis (default 60): each case layers
    a random scheduler over the random config space and holds both
    engines to the same 1e-9 contract (plus chunked bit identity on a
    subset).

The ``--runslow``-gated grid at the bottom exhaustively crosses every
registered ladder preset with every registered DPM policy (the
nightly-style sweep); the seeded harness samples that product every run.
"""

import os

import numpy as np
import pytest

from diffgen import (
    assert_chunked_identical,
    assert_engines_agree,
    assert_invariants,
    assert_observer_invisible,
    assert_streaming_consistent,
    build_case,
    build_scheduled_case,
    run_chunked,
    run_engines,
    run_observed,
    sample_scheduler,
)
from repro.obs.trace import TraceRecorder

from repro.control.policies import dpm_policy_names
from repro.disk.dpm import dpm_ladder_names
from repro.system.scheduling import request_scheduler_names
from repro.system import StorageConfig, StorageSystem, allocate
from repro.workload.generator import SyntheticWorkloadParams, generate_workload

CASES = int(os.environ.get("REPRO_DIFF_CASES", "200"))
BASE_SEED = int(os.environ.get("REPRO_DIFF_BASE_SEED", "20260726"))
#: Seeds for the chunked-vs-monolithic axis (each costs 1 monolithic + 1
#: streaming + len(CHUNK_SIZES) chunked fast runs — no event run, so the
#: default budget stays comparable to ~30 cross-engine cases).
CHUNK_CASES = int(os.environ.get("REPRO_DIFF_CHUNK_CASES", "30"))
#: Pathological on purpose: 1 (every request its own chunk — maximal
#: boundary count), a small prime (misaligned with every control interval
#: and write segment), and a mid-size prime (several boundaries per run).
CHUNK_SIZES = (1, 13, 101)
#: Seeds for the observer-passivity axis (each costs 2 event + 2 fast
#: runs, so the default budget matches ~40 cross-engine cases).
OBSERVER_CASES = int(os.environ.get("REPRO_DIFF_OBSERVER_CASES", "40"))
#: Seeds for the scheduler axis: each case layers a random request
#: scheduler (independent salted draw — base scenarios unchanged) over
#: the random config space and runs both engines; every third case also
#: re-runs the fast kernel chunked and requires bit identity.
SCHED_CASES = int(os.environ.get("REPRO_DIFF_SCHED_CASES", "60"))


@pytest.mark.parametrize("seed", range(BASE_SEED, BASE_SEED + CASES))
def test_random_config_agrees(seed):
    case = build_case(seed)
    event, fast = run_engines(case)
    assert_invariants(event, case)
    assert_invariants(fast, case)
    assert_engines_agree(event, fast, case)


@pytest.mark.parametrize("seed", range(BASE_SEED, BASE_SEED + CHUNK_CASES))
def test_chunked_matches_monolithic(seed):
    """Out-of-core axis: the chunked fast kernel is *bit-identical* to the
    monolithic one across the whole random config space, at every chunk
    size — and streaming metrics summarize the same run exactly."""
    from repro.system import StorageSystem

    case = build_case(seed)
    mono = StorageSystem(
        case.catalog,
        case.mapping,
        case.config.with_overrides(engine="fast"),
        num_disks=case.num_disks,
    ).run(case.stream)
    for k in CHUNK_SIZES:
        chunk = run_chunked(case, k)
        assert_chunked_identical(mono, chunk, case, k)
    streamed = run_chunked(case, CHUNK_SIZES[-1], metrics_mode="streaming")
    assert_streaming_consistent(mono, streamed, case)


@pytest.mark.parametrize("seed", range(BASE_SEED, BASE_SEED + OBSERVER_CASES))
def test_observer_runs_bit_identical(seed):
    """Observer axis: attaching a ``TraceRecorder`` must not perturb a
    single bit of either engine's output, anywhere in the random config
    space.  The recorder must also actually *see* the run (non-empty
    state spans) — a silently disconnected observer would pass the
    identity check vacuously."""
    case = build_case(seed)
    for engine in ("event", "fast"):
        off = run_observed(case, engine)
        recorder = TraceRecorder()
        on = run_observed(case, engine, observer=recorder)
        assert_observer_invisible(off, on, case, engine)
        if engine == "event":
            # The event engine reports the full per-disk state timeline.
            assert recorder.state_spans, (case.describe(), engine)
        elif off.spindowns:
            # The fast kernel's granularity is spin transitions; a run
            # with none legitimately leaves an empty span track.
            assert recorder.state_spans, (case.describe(), engine)


@pytest.mark.parametrize("seed", range(BASE_SEED, BASE_SEED + SCHED_CASES))
def test_scheduled_config_agrees(seed):
    """Scheduler axis: with a random request scheduler layered over the
    random config space, both engines still agree to 1e-9 — same release
    decisions, same submission order, same response accounting (measured
    from the *original* arrival).  Every third case additionally re-runs
    the fast kernel chunked at a misaligned prime chunk size and requires
    bit identity (the scheduler's pending releases are carry-state)."""
    case = build_scheduled_case(seed)
    event, fast = run_engines(case)
    assert_invariants(event, case)
    assert_invariants(fast, case)
    assert_engines_agree(event, fast, case)
    if (seed - BASE_SEED) % 3 == 0:
        for k in (13,):
            chunk = run_chunked(case, k)
            assert_chunked_identical(fast, chunk, case, k)


def test_scheduler_axis_covers_every_registered_scheduler():
    """The salted draw exercises every registered scheduler and both the
    parameterized and default-parameter arms (no silently dead branch)."""
    draws = [
        sample_scheduler(s) for s in range(BASE_SEED, BASE_SEED + 120)
    ]
    names = {name for name, _ in draws}
    assert names == set(request_scheduler_names())
    assert any(params for name, params in draws if name == "batch_release")
    assert any(
        not params for name, params in draws if name == "batch_release"
    )
    assert all(
        dict(params).get("target") is not None
        for name, params in draws
        if name == "slack_defer"
    )


def test_generator_is_deterministic():
    a, b = build_case(BASE_SEED), build_case(BASE_SEED)
    assert a.describe() == b.describe()
    assert np.array_equal(a.stream.times, b.stream.times)
    assert np.array_equal(a.mapping, b.mapping)


def test_generator_covers_the_config_space():
    """The sampler actually exercises every axis (no silently dead arms)."""
    cases = [build_case(s) for s in range(BASE_SEED, BASE_SEED + 120)]
    assert {c.config.cache_policy for c in cases} > {None}
    assert len({c.config.write_policy for c in cases}) >= 4
    assert {c.config.dpm_policy for c in cases} == set(dpm_policy_names())
    ladders = {
        c.config.dpm_ladder if isinstance(c.config.dpm_ladder, (str, type(None)))
        else "user"
        for c in cases
    }
    assert ladders >= set(dpm_ladder_names()) | {None, "user"}
    kinds = {type(c.stream).__name__ for c in cases}
    assert kinds == {"RequestStream", "MixedRequestStream"}
    thresholds = {
        (
            "default" if c.config.idleness_threshold is None
            else "inf" if c.config.idleness_threshold == float("inf")
            else "zero" if c.config.idleness_threshold == 0.0
            else "finite"
        )
        for c in cases
    }
    assert thresholds == {"default", "inf", "zero", "finite"}
    fleets = {
        c.config.fleet if isinstance(c.config.fleet, (str, type(None)))
        else "random"
        for c in cases
    }
    assert fleets == {None, "mixed_generation", "random"}
    # At least one sampled random fleet mixes drive models and at least
    # one carries a per-slot ladder (the mixed-ladder backfill path).
    profiles = [
        c.config.fleet.profile
        for c in cases
        if not isinstance(c.config.fleet, (str, type(None)))
    ]
    assert any(len({s.spec for s in p}) > 1 for p in profiles)
    assert any(any(s.ladder is not None for s in p) for p in profiles)
    assert {c.arrival_shape for c in cases} == {
        "uniform", "diurnal", "bursty"
    }


@pytest.mark.slow
@pytest.mark.parametrize("ladder", (None,) + dpm_ladder_names())
@pytest.mark.parametrize("policy", dpm_policy_names())
def test_full_ladder_policy_grid(ladder, policy):
    """Exhaustive ladder x policy equivalence (nightly --runslow sweep)."""
    wl = generate_workload(
        SyntheticWorkloadParams(
            n_files=900, arrival_rate=1.2, duration=800.0, seed=404
        )
    )
    kwargs = dict(
        num_disks=30,
        load_constraint=0.6,
        dpm_policy=policy,
        control_interval=120.0,
        dpm_ladder=ladder,
    )
    if policy == "slo_feedback":
        kwargs["slo_target"] = 25.0
    cfg = StorageConfig(**kwargs)
    mapping = allocate(wl.catalog, "pack", cfg, 1.2).mapping(wl.catalog.n)

    class _Case:
        seed = -1
        config = cfg

        @staticmethod
        def describe():
            return f"full grid: ladder={ladder!r} policy={policy!r}"

    event = StorageSystem(
        wl.catalog, mapping, cfg.with_overrides(engine="event")
    ).run(wl.stream)
    fast = StorageSystem(
        wl.catalog, mapping, cfg.with_overrides(engine="fast")
    ).run(wl.stream)
    assert_engines_agree(event, fast, _Case)
    assert event.spindowns > 0  # the grid exercises spin transitions
