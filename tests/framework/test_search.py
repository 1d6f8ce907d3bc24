"""Tests for the search tracker and search result containers."""

import numpy as np
import pytest

from repro.arch.platform import EDGE
from repro.encoding.genome_matrix import GenomeMatrix
from repro.framework.evaluator import DesignEvaluator
from repro.framework.search import SearchResult, SearchTracker


@pytest.fixture
def tracker(tiny_model):
    evaluator = DesignEvaluator(model=tiny_model, platform=EDGE)
    space = evaluator.genome_space()
    return SearchTracker(evaluator=evaluator, space=space, sampling_budget=10)


class TestBudget:
    def test_initial_state(self, tracker):
        assert tracker.remaining == 10
        assert not tracker.exhausted
        assert tracker.best is None

    def test_budget_decrements(self, tracker, rng):
        tracker.evaluate_matrix(
            GenomeMatrix.from_genomes([tracker.space.random_genome(rng)])
        )
        assert tracker.evaluations == 1
        assert tracker.remaining == 9

    def test_vector_evaluations_charge_budget_too(self, tracker, rng):
        tracker.evaluate_vector_batch([tracker.codec.random_vector(rng)])
        assert tracker.evaluations == 1

    def test_calls_past_the_budget_price_nothing(self, tracker, rng):
        for _ in range(10):
            tracker.evaluate_vector_batch([tracker.codec.random_vector(rng)])
        assert tracker.exhausted
        assert tracker.evaluate_vector_batch([tracker.codec.random_vector(rng)]) == []
        genome = tracker.space.random_genome(rng)
        assert tracker.evaluate_matrix(GenomeMatrix.from_genomes([genome])) == []
        # The refused calls are not charged.
        assert tracker.evaluations == 10

    def test_invalid_budget_rejected(self, tiny_model):
        evaluator = DesignEvaluator(model=tiny_model, platform=EDGE)
        with pytest.raises(ValueError):
            SearchTracker(evaluator, evaluator.genome_space(), sampling_budget=0)


class TestBestTracking:
    def test_best_improves_monotonically(self, tracker, rng):
        best_fitness = -np.inf
        for _ in range(10):
            tracker.evaluate_vector_batch([tracker.codec.random_vector(rng)])
            assert tracker.best is not None
            assert tracker.best.fitness >= best_fitness
            best_fitness = tracker.best.fitness

    def test_history_records_improvements(self, tracker, rng):
        tracker.evaluate_matrix(
            GenomeMatrix.from_genomes(tracker.space.random_population(10, rng))
        )
        assert tracker.history
        indices = [index for index, _ in tracker.history]
        fitnesses = [fitness for _, fitness in tracker.history]
        assert indices == sorted(indices)
        assert fitnesses == sorted(fitnesses)
        assert tracker.history[-1][1] == tracker.best.fitness

    def test_genomes_are_repaired_before_evaluation(self, tracker, rng):
        genome = tracker.space.random_genome(rng)
        genome.levels[0].tiles["K"] = 10**9
        genome.levels[0].spatial_size = 10**9
        (fitness,) = tracker.evaluate_matrix(GenomeMatrix.from_genomes([genome]))
        assert np.isfinite(fitness)
        assert tracker.best.design.hardware.num_pes <= tracker.space.max_pes


class TestSearchResult:
    def test_no_valid_best(self):
        result = SearchResult(
            optimizer_name="x", best=None, evaluations=5, sampling_budget=5,
            wall_time_seconds=0.1,
        )
        assert not result.found_valid
        assert result.best_latency == float("inf")
        assert result.best_latency_area_product == float("inf")
        assert "no valid design" in result.summary()

    def test_evals_per_second(self):
        result = SearchResult(
            optimizer_name="x", best=None, evaluations=100, sampling_budget=100,
            wall_time_seconds=2.0,
        )
        assert result.evals_per_second == 50.0
        assert "evals/s" in result.summary()

    def test_evals_per_second_zero_wall_time(self):
        # A search finishing in under one timer tick (tiny --smoke budgets)
        # must report 0 evals/s instead of raising ZeroDivisionError, and
        # the summary line must still render.
        for wall_time in (0.0, -0.0, 5e-324 - 5e-324):
            result = SearchResult(
                optimizer_name="x", best=None, evaluations=5, sampling_budget=5,
                wall_time_seconds=wall_time,
            )
            assert result.evals_per_second == 0.0
            assert "0 evals/s" in result.summary()

    def test_valid_best_summary(self, tracker, rng):
        tracker.evaluate_matrix(
            GenomeMatrix.from_genomes(tracker.space.random_population(10, rng))
        )
        result = SearchResult(
            optimizer_name="Random",
            best=tracker.best,
            evaluations=tracker.evaluations,
            sampling_budget=tracker.sampling_budget,
            wall_time_seconds=0.5,
            history=tuple(tracker.history),
        )
        if result.found_valid:
            assert result.best_latency > 0
            assert "latency" in result.summary()
            assert result.best_objective_value == result.best.objective_value
