"""(1+1) evolution strategy with one-fifth success-rule step adaptation."""

from __future__ import annotations

import numpy as np

from repro.framework.search import SearchTracker
from repro.optim.base import Optimizer


class OnePlusOneES(Optimizer):
    """Classic (1+1)-ES on the flat vector encoding.

    A single parent is perturbed with isotropic Gaussian noise; the child
    replaces the parent when it is at least as fit.  The step size follows
    the one-fifth success rule.  Each candidate depends on the last
    fitness, so every call prices a one-row batch.
    """

    name = "(1+1)-ES"

    def __init__(self, initial_sigma: float = 0.2, adaptation: float = 0.85):
        if initial_sigma <= 0:
            raise ValueError("initial_sigma must be positive")
        if not 0.0 < adaptation < 1.0:
            raise ValueError("adaptation must be in (0, 1)")
        self.initial_sigma = initial_sigma
        self.adaptation = adaptation

    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        dimension = tracker.vector_dimension
        parent = rng.random(dimension)
        fitness = tracker.evaluate_vector_batch([parent])
        if not fitness:
            return
        parent_fitness = fitness[0]
        sigma = self.initial_sigma

        while not tracker.exhausted:
            child = np.clip(parent + sigma * rng.standard_normal(dimension), 0.0, 1.0)
            fitness = tracker.evaluate_vector_batch([child])
            if not fitness:
                return
            if fitness[0] >= parent_fitness:
                parent, parent_fitness = child, fitness[0]
                sigma /= self.adaptation
            else:
                sigma *= self.adaptation ** 0.25
            sigma = float(np.clip(sigma, 1e-4, 1.0))
