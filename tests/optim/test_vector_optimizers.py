"""Unit tests of the generic black-box optimizers on an analytic function."""

import numpy as np
import pytest

from repro.optim.cma import CMAES
from repro.optim.de import DifferentialEvolution
from repro.optim.one_plus_one import OnePlusOneES
from repro.optim.pso import ParticleSwarm
from repro.optim.random_search import RandomSearch
from repro.optim.tbpsa import TBPSA
from tests.optim.helpers import BatchSpyTracker, QuadraticTracker

ALL_OPTIMIZERS = [
    RandomSearch(),
    OnePlusOneES(),
    DifferentialEvolution(population_size=10),
    ParticleSwarm(swarm_size=10),
    TBPSA(initial_population=8),
    CMAES(population_size=8),
]


@pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS, ids=lambda o: o.name)
class TestCommonBehaviour:
    def test_respects_budget(self, optimizer, rng):
        tracker = QuadraticTracker(sampling_budget=120)
        optimizer.run(tracker, rng)
        assert tracker.evaluations == 120

    def test_improves_over_first_sample(self, optimizer, rng):
        tracker = QuadraticTracker(sampling_budget=300)
        optimizer.run(tracker, rng)
        assert tracker.best_fitness > tracker.first_sample_fitness()


@pytest.mark.parametrize(
    "optimizer",
    [TBPSA(initial_population=8), CMAES(population_size=8), OnePlusOneES()],
    ids=lambda o: o.name,
)
def test_generations_are_priced_in_batches(optimizer, rng):
    # 100 is not a multiple of the initial generation size of 8; (1+1)-ES
    # prices one-row batches.
    tracker = BatchSpyTracker(sampling_budget=100)
    optimizer.run(tracker, rng)
    assert tracker.evaluations == tracker.batched_evaluations == 100


@pytest.mark.parametrize(
    "optimizer",
    [
        OnePlusOneES(),
        DifferentialEvolution(population_size=10),
        ParticleSwarm(swarm_size=10),
        CMAES(population_size=10),
    ],
    ids=lambda o: o.name,
)
class TestConvergence:
    def test_gets_close_to_optimum(self, optimizer, rng):
        tracker = QuadraticTracker(sampling_budget=800)
        optimizer.run(tracker, rng)
        # The sphere optimum has fitness 0; a competent search over ~800
        # samples in 28 dimensions should reach at least -0.5.
        assert tracker.best_fitness > -0.5

    def test_beats_random_search(self, optimizer):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        guided = QuadraticTracker(sampling_budget=600)
        optimizer.run(guided, rng_a)
        random_tracker = QuadraticTracker(sampling_budget=600)
        RandomSearch().run(random_tracker, rng_b)
        assert guided.best_fitness >= random_tracker.best_fitness


class TestHyperParameterValidation:
    def test_one_plus_one(self):
        with pytest.raises(ValueError):
            OnePlusOneES(initial_sigma=0.0)
        with pytest.raises(ValueError):
            OnePlusOneES(adaptation=1.5)

    def test_de(self):
        with pytest.raises(ValueError):
            DifferentialEvolution(population_size=3)
        with pytest.raises(ValueError):
            DifferentialEvolution(differential_weight=0.0)
        with pytest.raises(ValueError):
            DifferentialEvolution(crossover_rate=0.0)

    def test_pso(self):
        with pytest.raises(ValueError):
            ParticleSwarm(swarm_size=1)

    def test_tbpsa(self):
        with pytest.raises(ValueError):
            TBPSA(initial_sigma=-1.0)
        with pytest.raises(ValueError):
            TBPSA(growth=0.5)

    def test_cma(self):
        with pytest.raises(ValueError):
            CMAES(initial_sigma=0.0)
