"""Bench: the remaining design-choice ablations of
:mod:`repro.experiments.ablations`.

* size/popularity correlation (the paper's synthetic assumption vs the
  real-log finding),
* cache replacement policy (paper §6 future work),
* size-class segregation (paper §6 observation).
"""

from repro.experiments import ablations


def test_correlation_ablation(benchmark, report, scale):
    result = benchmark.pedantic(
        ablations.run_correlation, kwargs=dict(scale=scale), rounds=1, iterations=1
    )
    report(result)
    saving = result.bundles["correlation"].series["saving"].y
    # Inverse (paper's assumption) and none (real logs) must both save.
    assert saving[0] > 0.2
    assert saving[1] > 0.2


def test_cache_policy_ablation(benchmark, report, scale):
    result = benchmark.pedantic(
        ablations.run_cache_policies,
        kwargs=dict(scale=min(scale, 0.25)),
        rounds=1,
        iterations=1,
    )
    report(result)
    assert "lru" in result.tables["cache"]


def test_segregation_ablation(benchmark, report, scale):
    result = benchmark.pedantic(
        ablations.run_segregation, kwargs=dict(scale=scale), rounds=1, iterations=1
    )
    report(result)
    assert "pack_segregated" in result.tables["segregation"]
