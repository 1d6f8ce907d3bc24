"""Tests for the passive portfolio optimizer."""

import numpy as np
import pytest

from repro.encoding.genome_matrix import GenomeMatrix
from repro.optim.de import DifferentialEvolution
from repro.optim.digamma.algorithm import DiGamma
from repro.optim.nsga2 import NSGA2
from repro.optim.one_plus_one import OnePlusOneES
from repro.optim.portfolio import PassivePortfolio, _BudgetSlice
from repro.optim.pso import ParticleSwarm
from repro.optim.random_search import RandomSearch
from repro.optim.std_ga import StandardGA
from tests.optim.helpers import BatchSpyTracker, QuadraticTracker


class TestPortfolio:
    def test_requires_members(self):
        with pytest.raises(ValueError):
            PassivePortfolio(members=[])

    def test_default_members(self):
        portfolio = PassivePortfolio()
        assert len(portfolio.members) == 3

    def test_budget_split_across_members(self, rng):
        class CountingMember:
            name = "counter"

            def __init__(self):
                self.evaluations = 0

            def run(self, tracker, rng):
                while not tracker.exhausted:
                    tracker.evaluate_vector_batch(
                        [rng.random(tracker.vector_dimension)]
                    )
                    self.evaluations += 1

        members = [CountingMember(), CountingMember(), CountingMember()]
        portfolio = PassivePortfolio(members=members)
        tracker = QuadraticTracker(sampling_budget=90)
        portfolio.run(tracker, rng)
        assert tracker.evaluations == 90
        counts = [member.evaluations for member in members]
        assert counts == [30, 30, 30]

    def test_last_member_gets_leftover_budget(self, rng):
        portfolio = PassivePortfolio(members=[RandomSearch(), OnePlusOneES()])
        tracker = QuadraticTracker(sampling_budget=75)
        portfolio.run(tracker, rng)
        assert tracker.evaluations == 75

    def test_improves_over_first_sample(self, rng):
        portfolio = PassivePortfolio()
        tracker = QuadraticTracker(sampling_budget=300)
        portfolio.run(tracker, rng)
        assert tracker.best_fitness > tracker.first_sample_fitness()

    def test_deterministic_given_rng_seed(self):
        results = []
        for _ in range(2):
            tracker = QuadraticTracker(sampling_budget=120)
            PassivePortfolio().run(tracker, np.random.default_rng(11))
            results.append(tracker.best_fitness)
        assert results[0] == results[1]


class TestPortfolioBudgetAccounting:
    """The budget-slice bookkeeping, batched path included."""

    def test_batched_members_receive_equal_shares(self, rng):
        class BatchingMember:
            name = "batcher"

            def __init__(self):
                self.evaluations = 0

            def run(self, tracker, rng):
                while not tracker.exhausted:
                    batch = [rng.random(tracker.vector_dimension) for _ in range(7)]
                    fitnesses = tracker.evaluate_vector_batch(batch)
                    self.evaluations += len(fitnesses)
                    if len(fitnesses) < len(batch):
                        return

        members = [BatchingMember(), BatchingMember(), BatchingMember()]
        tracker = BatchSpyTracker(sampling_budget=90)
        PassivePortfolio(members=members).run(tracker, rng)
        assert tracker.evaluations == 90
        assert [member.evaluations for member in members] == [30, 30, 30]

    def test_total_never_exceeds_budget_with_oversized_batches(self, rng):
        class GreedyMember:
            name = "greedy"

            def run(self, tracker, rng):
                while not tracker.exhausted:
                    batch = [rng.random(tracker.vector_dimension) for _ in range(50)]
                    if len(tracker.evaluate_vector_batch(batch)) < len(batch):
                        return

        tracker = BatchSpyTracker(sampling_budget=45)
        PassivePortfolio(members=[GreedyMember(), GreedyMember()]).run(tracker, rng)
        assert tracker.evaluations == 45

    def test_truncated_batch_does_not_overcharge_slice(self, rng):
        tracker = BatchSpyTracker(sampling_budget=100)
        bounded = _BudgetSlice(tracker, allowed=5)
        batch = [rng.random(tracker.vector_dimension) for _ in range(30)]
        fitnesses = bounded.evaluate_vector_batch(batch)
        assert len(fitnesses) == 5
        assert bounded._used == 5
        assert bounded.exhausted
        # The outer tracker keeps the rest of its budget for other members.
        assert tracker.remaining == 95

    def test_slice_forwards_matrix_batches(self, rng):
        tracker = BatchSpyTracker(sampling_budget=20)
        bounded = _BudgetSlice(tracker, allowed=10)
        genomes = [tracker.space.random_genome(rng) for _ in range(4)]
        fitnesses = bounded.evaluate_matrix(GenomeMatrix.from_genomes(genomes))
        assert len(fitnesses) == 4
        assert tracker.batch_calls == 1
        assert tracker.batched_evaluations == 4

    def test_truncated_matrix_batch_does_not_overcharge_slice(self, rng):
        tracker = BatchSpyTracker(sampling_budget=100)
        bounded = _BudgetSlice(tracker, allowed=5)
        genomes = [tracker.space.random_genome(rng) for _ in range(30)]
        fitnesses = bounded.evaluate_matrix(GenomeMatrix.from_genomes(genomes))
        assert len(fitnesses) == 5
        assert bounded.exhausted
        assert tracker.remaining == 95

    def test_de_and_pso_members_hit_batched_path(self, rng):
        members = [
            DifferentialEvolution(population_size=8),
            ParticleSwarm(swarm_size=8),
        ]
        tracker = BatchSpyTracker(sampling_budget=64)
        PassivePortfolio(members=members).run(tracker, rng)
        assert tracker.evaluations == 64
        # Every evaluation of the population members arrived in a batch.
        assert tracker.batch_calls >= 2
        assert tracker.batched_evaluations == 64

    def test_ga_members_spend_the_budget_on_a_real_framework(self):
        from repro.arch.platform import EDGE
        from repro.framework.cooptimizer import CoOptimizationFramework
        from repro.workloads.registry import get_model

        framework = CoOptimizationFramework(get_model("ncf"), EDGE)
        portfolio = PassivePortfolio(members=[DiGamma(), StandardGA(), NSGA2()])
        try:
            result = framework.search(portfolio, sampling_budget=300, seed=3)
        finally:
            framework.close()
        assert result.evaluations == 300
        assert result.found_valid

    def test_de_member_batches_through_real_search_tracker(self):
        from repro.arch.platform import EDGE
        from repro.framework.evaluator import DesignEvaluator
        from repro.framework.search import SearchTracker
        from repro.workloads.registry import get_model

        evaluator = DesignEvaluator(get_model("ncf"), EDGE)
        tracker = SearchTracker(
            evaluator=evaluator,
            space=evaluator.genome_space(),
            sampling_budget=40,
        )
        portfolio = PassivePortfolio(
            members=[DifferentialEvolution(population_size=6),
                     ParticleSwarm(swarm_size=6)]
        )
        portfolio.run(tracker, np.random.default_rng(3))
        assert tracker.evaluations == 40
        assert tracker.batch_calls > 0
        assert tracker.batched_evaluations == 40
