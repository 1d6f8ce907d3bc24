"""Trajectory parity of the gene-matrix search loops.

The hard invariant of this repository's perf work: rewriting a search
inner loop must not change *anything* about the search — the RNG stream,
the fitness sequence, the best design, the history.  The GA loops and
their ``*_row`` operators are pinned against recorded goldens in
``test_loop_goldens.py``; here the engine selectors and memoization are
pinned against each other through whole searches, and the vectorized
PSO sweep against its per-particle reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.platform import get_platform
from repro.encoding.genome import GenomeSpace
from repro.encoding.genome_matrix import GenomeMatrix, genome_to_genes
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.optim.digamma import operators
from repro.optim.digamma.algorithm import DiGamma
from repro.optim.pso import ParticleSwarm
from repro.optim.std_ga import StandardGA
from repro.workloads.registry import get_model


@pytest.fixture(scope="module")
def ncf():
    return get_model("ncf")


def _search(model, optimizer, budget=600, seed=3, **framework_kwargs):
    framework = CoOptimizationFramework(
        model, get_platform("edge"), **framework_kwargs
    )
    return framework.search(optimizer, sampling_budget=budget, seed=seed)


#: Hierarchy depths the row operators are checked at.
DEPTHS = pytest.mark.parametrize("num_levels", [1, 2, 3, 4])


class TestEngineParity:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": "fast"},
            {"engine": "reference"},
            {"use_cache": False},
        ],
        ids=["fast", "reference", "no-cache"],
    )
    def test_whole_search_trajectories_are_pinned(self, ncf, kwargs):
        want = _search(ncf, DiGamma())
        got = _search(ncf, DiGamma(), **kwargs)
        assert got.history == want.history
        assert got.best.fitness == want.best.fitness

    def test_two_level_cache_counters_are_pinned(self, ncf):
        # The design LRU is the only reuse between generations, and each
        # batch prices its unique layer rows once: pin what both resolve
        # on one small default search.
        framework = CoOptimizationFramework(ncf, get_platform("edge"))
        framework.search(DiGamma(), sampling_budget=600, seed=3)
        evaluator = framework.evaluator
        design = evaluator.design_cache_stats
        layer = evaluator.layer_cache_stats
        assert (design.hits, design.misses) == (198, 402)
        assert (layer.hits, layer.misses) == (9, 1599)
        assert layer.size == 0  # no row enters the layer LRU
        assert evaluator.cost_model.vector_stats["rows_vectorized"] == 1599


class _ReferencePSO(ParticleSwarm):
    """The pre-vectorization per-particle update loop, kept as ground truth."""

    def run(self, tracker, rng):
        dimension = tracker.vector_dimension
        positions = rng.random((self.swarm_size, dimension))
        velocities = (rng.random((self.swarm_size, dimension)) - 0.5) * 0.1
        personal_best = positions.copy()
        personal_fitness = np.full(self.swarm_size, -np.inf)
        global_best = positions[0].copy()
        global_fitness = -np.inf

        fitnesses = tracker.evaluate_vector_batch(list(positions))
        for index, fitness in enumerate(fitnesses):
            personal_fitness[index] = fitness
            if fitness > global_fitness:
                global_fitness = fitness
                global_best = positions[index].copy()
        if len(fitnesses) < self.swarm_size:
            return

        while not tracker.exhausted:
            for index in range(self.swarm_size):
                r_cognitive = rng.random(dimension)
                r_social = rng.random(dimension)
                velocities[index] = (
                    self.inertia * velocities[index]
                    + self.cognitive
                    * r_cognitive
                    * (personal_best[index] - positions[index])
                    + self.social * r_social * (global_best - positions[index])
                )
                velocities[index] = np.clip(
                    velocities[index], -self.velocity_clamp, self.velocity_clamp
                )
                positions[index] = np.clip(
                    positions[index] + velocities[index], 0.0, 1.0
                )

            fitnesses = tracker.evaluate_vector_batch(list(positions))
            for index, fitness in enumerate(fitnesses):
                if fitness > personal_fitness[index]:
                    personal_fitness[index] = fitness
                    personal_best[index] = positions[index].copy()
                if fitness > global_fitness:
                    global_fitness = fitness
                    global_best = positions[index].copy()
            if len(fitnesses) < self.swarm_size:
                return


class TestPSOVectorizedSweep:
    def test_matches_the_per_particle_reference(self, ncf):
        vectorized = _search(ncf, ParticleSwarm(), budget=240, seed=5)
        reference = _search(ncf, _ReferencePSO(), budget=240, seed=5)
        assert vectorized.history == reference.history
        assert vectorized.best.fitness == reference.best.fitness


class TestOperatorRowTwins:
    """Row forms that still have a genome form must agree with it."""

    def _space(self, num_levels):
        return GenomeSpace(
            dim_bounds={"K": 64, "C": 48, "Y": 16, "X": 16, "R": 3, "S": 3},
            max_pes=256,
            num_levels=num_levels,
        )

    @DEPTHS
    def test_balance_parallel_row(self, num_levels):
        space = self._space(num_levels)
        genome = space.random_genome(np.random.default_rng(9))
        row = genome_to_genes(genome)
        operators.balance_parallel(genome, space)
        operators.balance_parallel_row(row, num_levels)
        assert row == genome_to_genes(genome)


class TestTrackerShim:
    def test_matrix_optimizers_run_on_stub_trackers(self):
        from tests.optim.helpers import BatchSpyTracker

        tracker = BatchSpyTracker(sampling_budget=120)
        DiGamma().run(tracker, np.random.default_rng(0))
        assert tracker.evaluations == 120
        assert tracker.batched_evaluations > 0

        tracker = BatchSpyTracker(sampling_budget=120)
        StandardGA(population_size=20).run(tracker, np.random.default_rng(0))
        assert tracker.evaluations == 120

    def test_matrix_population_container_round_trips(self):
        space = GenomeSpace(
            dim_bounds={"K": 8, "C": 8, "Y": 4, "X": 4, "R": 3, "S": 3},
            max_pes=64,
            num_levels=2,
        )
        genomes = space.random_population(6, np.random.default_rng(1))
        matrix = GenomeMatrix.from_genomes(genomes)
        assert len(matrix.truncated(4)) == 4
        assert matrix.copy().data is not matrix.data
        assert [g.cache_key() for g in matrix.to_genomes()] == [
            g.cache_key() for g in genomes
        ]
