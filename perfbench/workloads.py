"""The benchmark's workloads and the measured, correctness-gated search.

Every workload is a closed loop with one caller: this process runs one
DiGamma search at a time (population 80, no worker pool) and starts the
next only when the previous one has returned.  Each search builds a fresh
framework, so the in-memory caches start empty every time.
"""

from __future__ import annotations

import shutil
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.arch.platform import get_platform
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.evaluator import DesignEvaluator, EvaluationResult
from repro.optim.digamma.algorithm import DiGamma, DiGammaHyperParameters
from repro.workloads.registry import get_model

from tracing import EVALUATE_CALLS, GenerationClock, Tracer, installed

POPULATION = 80
#: The initial population plus 25 bred generations per search.
BUDGET = POPULATION * 26


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    platform: str
    num_levels: int
    #: Persistent layer cache: None (in-memory only), "warm" (a store per
    #: seed, filled by that seed's search before timing) or "cold" (an
    #: empty store for every search).
    store: Optional[str] = None
    #: Write a checkpoint at every generation boundary.
    checkpoint: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("edge-resnet18-2l", "resnet18", "edge", 2),
        Workload("cloud-mobilenet_v2-3l", "mobilenet_v2", "cloud", 3),
        Workload("edge-resnet18-l2warm", "resnet18", "edge", 2, store="warm"),
        Workload(
            "edge-resnet18-l2cold-ckpt",
            "resnet18",
            "edge",
            2,
            store="cold",
            checkpoint=True,
        ),
    )
}


@dataclass
class SearchRecord:
    """What one measured search did: outcome, timings and counters."""

    seed: int
    evaluations: int
    wall_s: float
    best: Optional[EvaluationResult]
    history: Tuple[Tuple[int, float], ...]
    #: Per-generation wall times (ns) and total time between evaluate calls.
    generation_ns: List[int]
    between_ns: int
    counters: Dict[str, int]

    @property
    def evals_per_s(self) -> float:
        return self.evaluations / self.wall_s

    @property
    def best_latency(self) -> float:
        """Simulated cycles of the best design."""
        return self.best.latency


class SearchFailed(RuntimeError):
    """A search raised, or its result failed the correctness gate."""


class Bench:
    """Runs one workload's searches and checks every result.

    ``work_dir`` holds the persistent stores and checkpoints; the caller
    removes it.  The correctness gate re-prices each best design on the
    reference engine and requires every search at one seed to reproduce
    the first one's best fitness and improvement history exactly.
    """

    def __init__(self, workload: Workload, work_dir: Path, budget: int = BUDGET):
        self.workload = workload
        self.work_dir = work_dir
        self.budget = budget
        self.model = get_model(workload.model)
        self.platform = get_platform(workload.platform)
        self.reference = DesignEvaluator(
            self.model, self.platform, engine="reference"
        )
        self.clock = GenerationClock()
        #: seed -> (best fitness as float.hex, history) of its first search.
        self._expected: Dict[int, Tuple[str, tuple]] = {}

    def fresh_dir(self, name: str) -> Path:
        path = self.work_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def store_dir(self, seed: int) -> Path:
        """The warm store of ``seed``'s search: filled by that search."""
        return self.work_dir / f"store-{seed}"

    def prepare(self, seeds: List[int]) -> None:
        """Untimed set-up of the inputs: fill each seed's warm store."""
        if self.workload.store == "warm":
            for seed in seeds:
                self.fresh_dir(self.store_dir(seed).name)
                self.search(seed)

    def search(
        self,
        seed: int,
        tracer: Optional[Tracer] = None,
        budget: Optional[int] = None,
    ) -> SearchRecord:
        """One timed search at ``seed``; raises :class:`SearchFailed`.

        With ``tracer``, the search runs with every layer's spans recorded.
        A search with an explicit ``budget`` (the warm-up) is not gated.
        """
        workload = self.workload
        cache_dir = None
        if workload.store == "warm":
            cache_dir = self.store_dir(seed)
        elif workload.store == "cold":
            cache_dir = self.fresh_dir("cold-store")
        checkpoint_dir = (
            str(self.fresh_dir("checkpoints")) if workload.checkpoint else None
        )
        framework = open_framework(
            workload, self.model, self.platform, cache_dir
        )
        self.clock.marks.clear()
        spans = nullcontext()
        if tracer is not None:
            tracer.reset()
            spans = installed(tracer)
        try:
            with spans, installed(self.clock, (EVALUATE_CALLS,)):
                start = perf_counter()
                result = framework.search(
                    DiGamma(DiGammaHyperParameters(population_size=POPULATION)),
                    sampling_budget=budget or self.budget,
                    seed=seed,
                    checkpoint_dir=checkpoint_dir,
                )
                wall_s = perf_counter() - start
            counters = read_counters(framework)
        except Exception as error:
            raise SearchFailed(f"seed {seed}: {error!r}") from error
        finally:
            framework.close()
        record = SearchRecord(
            seed=seed,
            evaluations=result.evaluations,
            wall_s=wall_s,
            best=result.best,
            history=result.history,
            generation_ns=self.clock.generation_ns(),
            between_ns=self.clock.between_ns(),
            counters=counters,
        )
        if budget is None:
            self.check(record)
        return record

    def check(self, record: SearchRecord) -> None:
        """The correctness gate; raises :class:`SearchFailed` on a mismatch."""
        seed = record.seed
        best = record.best
        if best is None or not best.valid:
            raise SearchFailed(f"seed {seed}: no valid design found")
        try:
            repriced = self.reference.evaluate_mapping(best.design.mapping)
        except Exception as error:
            raise SearchFailed(f"seed {seed}: re-pricing raised {error!r}") from error
        fitness = float(best.fitness).hex()
        if float(repriced.fitness).hex() != fitness:
            raise SearchFailed(
                f"seed {seed}: reference engine prices the best design at "
                f"{repriced.fitness!r}, the search at {best.fitness!r}"
            )
        expected = self._expected.setdefault(seed, (fitness, record.history))
        if expected != (fitness, record.history):
            raise SearchFailed(
                f"seed {seed}: best fitness or history differs from the "
                "first search at this seed"
            )


def open_framework(
    workload: Workload, model, platform, cache_dir: Optional[Path]
) -> CoOptimizationFramework:
    """The framework a search of ``workload`` runs in (pool off)."""
    return CoOptimizationFramework(
        model,
        platform,
        num_levels=workload.num_levels,
        cache_dir=None if cache_dir is None else str(cache_dir),
    )


def read_counters(framework: CoOptimizationFramework) -> Dict[str, int]:
    """The counters the program already keeps, for one finished search."""
    evaluator = framework.evaluator
    design = evaluator.design_cache_stats
    layer = evaluator.layer_cache_stats
    vector = evaluator.cost_model.vector_stats
    counters = {
        "design_hits": design.hits,
        "design_misses": design.misses,
        "layer_hits": layer.hits,
        "layer_misses": layer.misses,
        "rows_priced": vector["rows_vectorized"] + vector["rows_fallback"],
        "l2_hits": 0,
        "l2_misses": 0,
        "l2_writes": 0,
    }
    tier = evaluator.persistent_cache
    if tier is not None:
        counters.update(tier.counters())
    return counters
