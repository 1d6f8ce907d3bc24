"""Shared configuration for the benchmark suite.

``bench_search_throughput.py`` times whole searches.  Because a
paper-scale search (40K samples) takes minutes, it defaults to a
scaled-down sampling budget; both knobs can be overridden through
environment variables:

===========================  =============================================
``REPRO_BENCH_BUDGET``       sampling budget per search (default 600)
``REPRO_BENCH_SEED``         random seed (default 0)
===========================  =============================================

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import os

from repro.experiments.settings import ExperimentSettings

#: Default per-search sampling budget used by the benchmarks.
DEFAULT_BENCH_BUDGET = 600


def bench_settings() -> ExperimentSettings:
    """Experiment settings derived from the benchmark environment variables."""
    budget = int(os.environ.get("REPRO_BENCH_BUDGET", DEFAULT_BENCH_BUDGET))
    seed = int(os.environ.get("REPRO_BENCH_SEED", 0))
    return ExperimentSettings(sampling_budget=budget, seed=seed)
