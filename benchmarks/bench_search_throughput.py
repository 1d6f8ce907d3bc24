"""End-to-end search throughput benchmark (evals/sec at a fixed budget).

This is the speed contract of the fast-path evaluation engine: a whole
DiGamma search on ``resnet18`` (edge platform), measured as evaluations per
wall-clock second, compared against the seed implementation (the reference
engine without memoization).  The same numbers are recorded across PRs by
``benchmarks/perf_tracking.py`` into ``BENCH_cost_model.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_search_throughput.py \
        --benchmark-only -s
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_settings
from repro.arch.platform import get_platform
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.optim.registry import get_optimizer
from repro.workloads.registry import get_model

#: Searches are short enough to time directly with several rounds.
_ROUNDS = 3

ENGINE_CONFIGS = {
    "vector-cached": {},  # the default data path: matrix loops + vector engine
    "vector-uncached": {"use_cache": False},
    "fast-cached": {"engine": "fast"},
    "fast-uncached": {"engine": "fast", "use_cache": False},
    "reference": {"engine": "reference", "use_cache": False},
}


def _run_search(framework_kwargs, budget, seed):
    model = get_model("resnet18")
    framework = CoOptimizationFramework(
        model, get_platform("edge"), **framework_kwargs
    )
    result = framework.search(
        get_optimizer("digamma"), sampling_budget=budget, seed=seed
    )
    assert result.evaluations == budget
    return result


@pytest.mark.parametrize("config_name", sorted(ENGINE_CONFIGS))
def test_ga_search_throughput(benchmark, config_name):
    settings = bench_settings()
    result = benchmark.pedantic(
        _run_search,
        args=(ENGINE_CONFIGS[config_name], settings.sampling_budget, settings.seed),
        rounds=_ROUNDS,
        iterations=1,
    )
    assert result.evals_per_second > 0
