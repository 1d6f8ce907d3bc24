"""Differential evolution (DE/rand/1/bin) baseline."""

from __future__ import annotations

import numpy as np

from repro.framework.search import SearchTracker
from repro.optim.base import Optimizer, checkpoint_generation, resume_state


class DifferentialEvolution(Optimizer):
    """Standard DE/rand/1/bin over the flat vector encoding.

    The algorithm is generational: every generation's trial vectors are
    built from the current population and scored as one batch, then the
    one-to-one selection is applied.  This is the textbook synchronous DE
    and lets the framework evaluate whole generations in a single call —
    trial batches decode straight into gene-matrix rows inside
    :meth:`~repro.framework.search.SearchTracker.evaluate_vector_batch`, so
    DE rides the population data path without building ``Genome`` objects.
    The index/crossover draws stay per-member: their interleaved RNG
    stream is part of the pinned search trajectories.
    """

    name = "DE"
    supports_checkpoint = True

    def __init__(
        self,
        population_size: int = 30,
        differential_weight: float = 0.6,
        crossover_rate: float = 0.8,
    ):
        if population_size < 4:
            raise ValueError("DE needs a population of at least 4")
        if not 0.0 < differential_weight <= 2.0:
            raise ValueError("differential_weight must be in (0, 2]")
        if not 0.0 < crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in (0, 1]")
        self.population_size = population_size
        self.differential_weight = differential_weight
        self.crossover_rate = crossover_rate

    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        dimension = tracker.vector_dimension
        state = resume_state(tracker, "de")
        if state is not None:
            population = np.asarray(state["population"], dtype=float)
            fitness = np.asarray(state["fitness"], dtype=float)
        else:
            population = rng.random((self.population_size, dimension))
            fitness = np.asarray(
                tracker.evaluate_vector_batch(list(population)), dtype=float
            )
            if fitness.size < self.population_size:
                return

        def loop_state():
            return {
                "kind": "de",
                "population": population.tolist(),
                "fitness": fitness.tolist(),
            }

        while not tracker.exhausted:
            checkpoint_generation(tracker, loop_state)
            trials = np.empty_like(population)
            for index in range(self.population_size):
                candidates = [i for i in range(self.population_size) if i != index]
                a, b, c = rng.choice(candidates, size=3, replace=False)
                mutant = population[a] + self.differential_weight * (
                    population[b] - population[c]
                )
                mutant = np.clip(mutant, 0.0, 1.0)

                cross = rng.random(dimension) < self.crossover_rate
                cross[rng.integers(dimension)] = True
                trials[index] = np.where(cross, mutant, population[index])

            trial_fitness = tracker.evaluate_vector_batch(list(trials))
            for index, value in enumerate(trial_fitness):
                if value >= fitness[index]:
                    population[index] = trials[index]
                    fitness[index] = value
            if len(trial_fitness) < self.population_size:
                return
