"""Golden search trajectories and operator draws.

DiGamma, stdGA and NSGA-II each used to have a second, per-genome
generation loop with genome-form operators, kept only so parity tests
could compare the gene-matrix loop against it.  ``loop_goldens.json`` was
recorded from those per-genome loops and operators before they were
deleted, on the parity tests' budgets, seeds and hierarchy depths, under
the vector, fast and reference engines.  Every case below reruns the same
search or ``*_row`` operator through today's code and must reproduce the
recorded values bit for bit:

* a search golden is its best fitness, evaluation count and a SHA-256 of
  its history (of its Pareto front values for ``pareto_search``);
* an operator golden is the child's genes and the next ``rng.random()``
  draw, which pins how many values the operator consumed.

The CMA-ES and TBPSA entries were recorded from their
one-candidate-per-call generation loops, at budgets that end in the middle
of a generation, and the ``grid-dla`` entries from the grid search that
priced one template genome per call.  The (1+1)-ES, DE, PSO and portfolio
entries were recorded while (1+1)-ES still priced each candidate through
the tracker's single-vector view.

Never re-record the file to make a test pass.  A change that alters a
trajectory or an operator's draws on purpose re-records it in its own,
documented commit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import pytest

from repro.arch.platform import get_platform
from repro.encoding.genome import GenomeSpace
from repro.encoding.genome_matrix import genome_to_genes
from repro.experiments.settings import make_fixed_hardware
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.optim.cma import CMAES
from repro.optim.de import DifferentialEvolution
from repro.optim.digamma import operators
from repro.optim.digamma.algorithm import DiGamma
from repro.optim.gamma import GammaMapper
from repro.optim.grid_search import HardwareGridSearch
from repro.optim.nsga2 import NSGA2
from repro.optim.one_plus_one import OnePlusOneES
from repro.optim.portfolio import PassivePortfolio
from repro.optim.pso import ParticleSwarm
from repro.optim.random_search import RandomSearch
from repro.optim.std_ga import StandardGA
from repro.optim.tbpsa import TBPSA
from repro.workloads.registry import get_model

GOLDENS = json.loads(Path(__file__).with_name("loop_goldens.json").read_text())


def _sha256(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


@dataclass(frozen=True)
class Search:
    """One recorded search configuration."""

    optimizer: Callable[[], object]
    budget: int
    seed: int
    model: str = "ncf"
    platform: str = "edge"
    pareto: bool = False
    #: Compute share of a fixed-HW configuration (GAMMA's Fixed-HW case).
    fixed_compute_fraction: Optional[float] = None

    def run(self, engine: str, num_levels: int) -> dict:
        platform = get_platform(self.platform)
        kwargs = {"engine": engine, "num_levels": num_levels}
        if self.pareto:
            kwargs["objectives"] = "latency,energy"
        if self.fixed_compute_fraction is not None:
            kwargs["fixed_hardware"] = make_fixed_hardware(
                platform, self.fixed_compute_fraction
            )
        framework = CoOptimizationFramework(
            get_model(self.model), platform, **kwargs
        )
        try:
            if self.pareto:
                front = framework.pareto_search(
                    self.optimizer(), sampling_budget=self.budget, seed=self.seed
                )
                return {
                    "evaluations": front.evaluations,
                    "front_sha256": _sha256(
                        [list(values) for values in front.front_values]
                    ),
                }
            result = framework.search(
                self.optimizer(), sampling_budget=self.budget, seed=self.seed
            )
            return {
                "best_fitness": result.best.fitness,
                "evaluations": result.evaluations,
                "history_sha256": _sha256([list(point) for point in result.history]),
            }
        finally:
            framework.close()


#: Recorded at hierarchy depths 1-4 under the vector and fast engines, and
#: at depth 2 under the reference engine.
CORE_SEARCHES = {
    "digamma": Search(DiGamma, budget=600, seed=3),
    "stdga": Search(StandardGA, budget=600, seed=3),
    "nsga2": Search(NSGA2, budget=480, seed=2),
    "nsga2-pareto": Search(NSGA2, budget=480, seed=1, pareto=True),
    "random": Search(RandomSearch, budget=600, seed=3),
}

#: Recorded at depth 2 under the vector and fast engines.
VARIANT_SEARCHES = {
    "digamma-no-hw": Search(
        lambda: DiGamma(use_hw_operators=False),
        budget=600, seed=3, model="resnet18", platform="cloud",
    ),
    "digamma-no-struct": Search(
        lambda: DiGamma(use_structured_operators=False),
        budget=600, seed=3, model="resnet18", platform="cloud",
    ),
    "gamma-fixed-hw": Search(
        GammaMapper, budget=600, seed=3, fixed_compute_fraction=0.5
    ),
    "grid-dla": Search(
        lambda: HardwareGridSearch("dla"),
        budget=600, seed=3, model="resnet18",
    ),
}

#: Recorded at depths 2 and 3 under the vector and fast engines.  Neither
#: budget is a multiple of a generation (lambda = 13 at depth 2, and 30
#: for DE and PSO) or of the portfolio's three shares.
BASELINE_SEARCHES = {
    "cma-b250": Search(CMAES, budget=250, seed=3),
    "cma-b601": Search(CMAES, budget=601, seed=5),
    "tbpsa-b250": Search(TBPSA, budget=250, seed=3),
    "tbpsa-b601": Search(TBPSA, budget=601, seed=5),
    "(1+1)-es-b250": Search(OnePlusOneES, budget=250, seed=3),
    "(1+1)-es-b601": Search(OnePlusOneES, budget=601, seed=5),
    "de-b250": Search(DifferentialEvolution, budget=250, seed=3),
    "de-b601": Search(DifferentialEvolution, budget=601, seed=5),
    "pso-b250": Search(ParticleSwarm, budget=250, seed=3),
    "pso-b601": Search(ParticleSwarm, budget=601, seed=5),
    "portfolio-b250": Search(PassivePortfolio, budget=250, seed=3),
    "portfolio-b601": Search(PassivePortfolio, budget=601, seed=5),
}

SEARCHES = {**CORE_SEARCHES, **VARIANT_SEARCHES, **BASELINE_SEARCHES}

SEARCH_CASES = [
    pytest.param(name, engine, depth, id=f"{name}/{engine}/L{depth}")
    for name in CORE_SEARCHES
    for engine, depth in [
        *(("vector", depth) for depth in (1, 2, 3, 4)),
        *(("fast", depth) for depth in (1, 2, 3, 4)),
        ("reference", 2),
    ]
] + [
    pytest.param(name, engine, 2, id=f"{name}/{engine}/L2")
    for name in VARIANT_SEARCHES
    for engine in ("vector", "fast")
] + [
    pytest.param(name, engine, depth, id=f"{name}/{engine}/L{depth}")
    for name in BASELINE_SEARCHES
    for engine in ("vector", "fast")
    for depth in (2, 3)
] + [
    # (1+1)-ES prices one candidate per call, the scalar engines' shape.
    pytest.param(
        "(1+1)-es-b250", "reference", 2, id="(1+1)-es-b250/reference/L2"
    ),
]


@pytest.mark.parametrize("name, engine, num_levels", SEARCH_CASES)
def test_search_reproduces_its_golden(name, engine, num_levels):
    search = SEARCHES[name]
    golden = GOLDENS["trajectories"][f"{name}/{engine}/L{num_levels}"]
    assert search.run(engine, num_levels) == golden


#: Each row operator as a call on (parent row, other parent row, space,
#: depth, rng); only crossover reads the second parent.
ROW_OPERATORS = {
    "crossover": lambda row, other, space, levels, rng: operators.crossover_rows(
        row, other, levels, rng
    ),
    "reorder": lambda row, other, space, levels, rng: operators.reorder_row(
        row, levels, rng
    ),
    "grow": lambda row, other, space, levels, rng: operators.grow_row(
        row, space, levels, rng
    ),
    "mutate_map": lambda row, other, space, levels, rng: operators.mutate_map_row(
        row, space, levels, rng
    ),
    "mutate_hw": lambda row, other, space, levels, rng: operators.mutate_hw_row(
        row, space, levels, rng
    ),
}


@pytest.mark.parametrize("num_levels", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(ROW_OPERATORS))
def test_row_operator_reproduces_its_golden(name, num_levels):
    space = GenomeSpace(
        dim_bounds={"K": 64, "C": 48, "Y": 16, "X": 16, "R": 3, "S": 3},
        max_pes=256,
        num_levels=num_levels,
    )
    for seed in range(8):
        parents = np.random.default_rng(seed)
        row = genome_to_genes(space.random_genome(parents))
        other = genome_to_genes(space.random_genome(parents))
        rng = np.random.default_rng(100 + seed)
        child = ROW_OPERATORS[name](row, other, space, num_levels, rng)
        golden = GOLDENS["operators"][f"{name}/L{num_levels}/s{seed}"]
        assert child == golden["genes"], seed
        assert rng.random() == golden["next_draw"], seed
