"""Passive portfolio baseline.

A passive portfolio splits the sampling budget evenly across a fixed set of
member algorithms and reports the best design any of them found.  The
member set mirrors the spirit of nevergrad's ``Portfolio`` optimizer:
a discrete/evolutionary method, a differential-evolution method and a
direct-search method.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.encoding.genome_matrix import GenomeMatrix
from repro.framework.search import SearchTracker
from repro.optim.base import Optimizer
from repro.optim.de import DifferentialEvolution
from repro.optim.one_plus_one import OnePlusOneES
from repro.optim.pso import ParticleSwarm


class _BudgetSlice:
    """View of a tracker that exposes only a slice of the remaining budget.

    The tracker's evaluation views are forwarded, so population-based
    members (DE, PSO, GAs) keep scoring whole generations in one evaluator
    call.  Batches are truncated to the slice's remaining allowance,
    and the slice is charged for the number of results actually returned
    (the underlying tracker may truncate further), so a cut-short batch
    never overcharges the member.
    """

    def __init__(self, tracker: SearchTracker, allowed: int):
        self._tracker = tracker
        self._allowed = allowed
        self._used = 0
        # Delegate the attributes optimizers read directly.
        self.space = tracker.space
        self.codec = tracker.codec
        self.vector_dimension = tracker.vector_dimension
        # The GAs size their populations from the budget they may spend.
        self.sampling_budget = allowed

    @property
    def exhausted(self) -> bool:
        return self._used >= self._allowed or self._tracker.exhausted

    @property
    def remaining(self) -> int:
        return max(0, min(self._allowed - self._used, self._tracker.remaining))

    def evaluate_matrix(self, matrix: GenomeMatrix) -> List[float]:
        return self._charge(
            self._tracker.evaluate_matrix(self._truncated(matrix))
        )

    def evaluate_matrix_results(self, matrix: GenomeMatrix) -> list:
        return self._charge(
            self._tracker.evaluate_matrix_results(self._truncated(matrix))
        )

    def evaluate_vector_batch(self, vectors: Sequence[np.ndarray]) -> List[float]:
        return self._charge(
            self._tracker.evaluate_vector_batch(list(vectors)[: self.remaining])
        )

    def _truncated(self, matrix: GenomeMatrix) -> GenomeMatrix:
        return matrix.truncated(min(len(matrix), self.remaining))

    def _charge(self, results: list) -> list:
        self._used += len(results)
        return results


class PassivePortfolio(Optimizer):
    """Run several member optimizers on equal shares of the budget."""

    name = "Portfolio"

    def __init__(self, members: Optional[Sequence[Optimizer]] = None):
        self.members: List[Optimizer] = (
            list(members)
            if members is not None
            else [OnePlusOneES(), DifferentialEvolution(), ParticleSwarm()]
        )
        if not self.members:
            raise ValueError("a portfolio needs at least one member")

    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        share = max(1, tracker.remaining // len(self.members))
        for index, member in enumerate(self.members):
            if tracker.exhausted:
                return
            allowed = share if index < len(self.members) - 1 else tracker.remaining
            member_rng = np.random.default_rng(rng.integers(2**31 - 1))
            member.run(_BudgetSlice(tracker, allowed), member_rng)
