"""The gene-matrix evaluation path.

Contracts pinned here:

* ``DesignEvaluator.evaluate_matrix`` is bit-identical to evaluating the
  same (repaired) genomes one by one, under every engine selector;
* the design memo reuses survivors across generations without changing a
  result, each call prices its unique layer rows once and keeps them out
  of the layer LRU, ``cache_clear`` empties both LRUs, row fingerprints
  carry the full layer-cache key, and ``use_cache=False`` memoizes
  nothing across calls;
* the tracker's matrix views share the genome views' budget semantics; and
* results carry lazily materialized genomes/mappings that match the
  eagerly built ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.platform import CLOUD, EDGE
from repro.encoding.genome_matrix import GenomeMatrix, repaired_matrix
from repro.encoding.repair import repair_genome
from repro.framework.evaluator import DesignEvaluator, RowGenomeResult
from repro.framework.search import SearchTracker
from repro.workloads.registry import get_model

PLATFORMS = pytest.mark.parametrize("platform", [EDGE, CLOUD], ids=["edge", "cloud"])


@pytest.fixture(scope="module")
def resnet18():
    return get_model("resnet18")


@pytest.fixture(scope="module")
def ncf():
    return get_model("ncf")


def _repaired_population(evaluator, count, seed, num_levels=2):
    space = evaluator.genome_space(num_levels=num_levels)
    rng = np.random.default_rng(seed)
    genomes = space.random_population(count, rng)
    matrix = repaired_matrix(GenomeMatrix.from_genomes(genomes), space)
    return space, genomes, matrix


def _assert_results_identical(a, b):
    assert a.fitness == b.fitness
    assert a.valid == b.valid
    assert a.objective_value == b.objective_value
    assert a.latency == b.latency
    assert a.energy == b.energy
    assert a.violations == b.violations
    assert a.objective_vector == b.objective_vector


class TestMatrixMatchesGenomePath:
    @PLATFORMS
    def test_bit_identical_to_genome_loop(self, resnet18, platform):
        matrix_evaluator = DesignEvaluator(model=resnet18, platform=platform)
        genome_evaluator = DesignEvaluator(model=resnet18, platform=platform)
        space, genomes, matrix = _repaired_population(matrix_evaluator, 25, seed=11)
        matrix_results = matrix_evaluator.evaluate_matrix(matrix)
        for result, genome in zip(matrix_results, genomes):
            want = genome_evaluator.evaluate_genome(repair_genome(genome.copy(), space))
            _assert_results_identical(result, want)

    @PLATFORMS
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_scalar_engines_take_the_genome_fallback(
        self, resnet18, platform, engine
    ):
        scalar = DesignEvaluator(model=resnet18, platform=platform, engine=engine)
        vector = DesignEvaluator(model=resnet18, platform=platform)
        _, _, matrix = _repaired_population(vector, 10, seed=13)
        for a, b in zip(
            scalar.evaluate_matrix(matrix), vector.evaluate_matrix(matrix)
        ):
            _assert_results_identical(a, b)

    def test_three_level_hierarchies_price_natively(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        reference = DesignEvaluator(model=ncf, platform=EDGE)
        space, genomes, matrix = _repaired_population(
            evaluator, 8, seed=17, num_levels=3
        )
        for result, genome in zip(
            evaluator.evaluate_matrix(matrix), genomes
        ):
            assert isinstance(result, RowGenomeResult)
            want = reference.evaluate_genome(repair_genome(genome.copy(), space))
            _assert_results_identical(result, want)
        stats = evaluator.cost_model.vector_stats
        assert stats["rows_vectorized"] > 0
        assert stats["rows_fallback"] == 0

    def test_fill_buffer_allocation_matches(self, ncf):
        filled = DesignEvaluator(model=ncf, platform=EDGE, buffer_allocation="fill")
        want = DesignEvaluator(model=ncf, platform=EDGE, buffer_allocation="fill")
        space, genomes, matrix = _repaired_population(filled, 10, seed=19)
        for result, genome in zip(filled.evaluate_matrix(matrix), genomes):
            _assert_results_identical(
                result, want.evaluate_genome(repair_genome(genome.copy(), space))
            )

    def test_objective_vectors_ride_along(self, ncf):
        from repro.framework.objective import ObjectiveSet

        objectives = ObjectiveSet.from_names("latency,energy,area")
        vector = DesignEvaluator(model=ncf, platform=EDGE, objectives=objectives)
        scalar = DesignEvaluator(model=ncf, platform=EDGE, objectives=objectives)
        space, genomes, matrix = _repaired_population(vector, 12, seed=23)
        for result, genome in zip(vector.evaluate_matrix(matrix), genomes):
            want = scalar.evaluate_genome(repair_genome(genome.copy(), space))
            assert result.objective_vector == want.objective_vector

    def test_invalid_orders_are_rejected(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        _, _, matrix = _repaired_population(evaluator, 9, seed=29)
        matrix.data[4, 2:8] = [0, 0, 2, 3, 4, 5]
        with pytest.raises(
            ValueError,
            match=r"^order of level 0 must be a permutation of all dims, "
            r"got \[0, 0, 2, 3, 4, 5\]$",
        ):
            evaluator.evaluate_matrix(matrix)


class TestLazyResults:
    def test_genome_materializes_from_the_row(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        space, genomes, matrix = _repaired_population(evaluator, 6, seed=31)
        results = evaluator.evaluate_matrix(matrix)
        for result, genome in zip(results, genomes):
            assert isinstance(result, RowGenomeResult)
            want = repair_genome(genome.copy(), space)
            assert result.genome.cache_key() == want.cache_key()
            assert result.design.mapping.cache_key() == want.cache_key()


class TestRowReuse:
    def test_no_cache_reprices_every_row(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE, use_cache=False)
        _, _, matrix = _repaired_population(evaluator, 10, seed=43)
        evaluator.evaluate_matrix(matrix)
        first = evaluator.cost_model.vector_stats["rows_vectorized"]
        evaluator.evaluate_matrix(matrix)
        second = evaluator.cost_model.vector_stats["rows_vectorized"]
        assert first > 0
        assert second == 2 * first

    @staticmethod
    def _next_generation(genomes, space, survivors, dim):
        # Elitist survivors + lightly mutated children, as DiGamma breeds.
        children = []
        for genome in genomes[survivors:]:
            child = genome.copy()
            child.levels[1].tiles[dim] = max(1, child.levels[1].tiles[dim] - 1)
            children.append(child)
        return repaired_matrix(
            GenomeMatrix.from_genomes(genomes[:survivors] + children), space
        )

    def test_warm_lrus_match_an_unmemoized_evaluator(self, resnet18):
        warm = DesignEvaluator(model=resnet18, platform=EDGE)
        cold = DesignEvaluator(model=resnet18, platform=EDGE, use_cache=False)
        space, genomes, matrix = _repaired_population(warm, 20, seed=37)
        second = self._next_generation(genomes, space, 7, "R")
        for generation in (matrix, second):
            for a, b in zip(
                warm.evaluate_matrix(generation), cold.evaluate_matrix(generation)
            ):
                _assert_results_identical(a, b)
        assert warm.design_cache_stats.hits > 0

    def test_design_lru_reuses_survivors(self, resnet18):
        evaluator = DesignEvaluator(model=resnet18, platform=EDGE)
        space, genomes, matrix = _repaired_population(evaluator, 15, seed=41)
        evaluator.evaluate_matrix(matrix)
        design = evaluator.design_cache_stats
        assert (design.hits, design.misses) == (0, 15)
        priced = evaluator.cost_model.vector_stats["rows_vectorized"]

        evaluator.evaluate_matrix(self._next_generation(genomes, space, 5, "S"))
        design = evaluator.design_cache_stats
        assert design.hits >= 5  # elitist survivors
        # Only the children's rows are priced again.
        repriced = evaluator.cost_model.vector_stats["rows_vectorized"] - priced
        assert 0 < repriced <= 10 * len(resnet18.layers)

    def test_a_lone_design_takes_the_per_design_path(self, resnet18):
        # One row skips the vector engine and goes through the layer LRU,
        # which answers most of a sequential search's layer lookups.
        evaluator = DesignEvaluator(model=resnet18, platform=EDGE)
        reference = DesignEvaluator(model=resnet18, platform=EDGE)
        space, genomes, matrix = _repaired_population(evaluator, 1, seed=67)
        (result,) = evaluator.evaluate_matrix(matrix)
        stats = evaluator.cost_model.vector_stats
        assert (stats["rows_vectorized"], stats["rows_fallback"]) == (0, 0)
        assert evaluator.layer_cache_stats.size > 0
        assert evaluator.design_cache_stats.misses == 1
        want = reference.evaluate_genome(repair_genome(genomes[0].copy(), space))
        _assert_results_identical(result, want)

    def test_matrix_rows_stay_out_of_the_layer_lru(self, resnet18):
        # Two generations of gene matrices fill no layer LRU entry; a
        # later tuple-path evaluation on the same evaluator still does.
        evaluator = DesignEvaluator(model=resnet18, platform=EDGE)
        space, genomes, matrix = _repaired_population(evaluator, 15, seed=41)
        best = evaluator.evaluate_matrix(matrix)[0]
        evaluator.evaluate_matrix(self._next_generation(genomes, space, 5, "S"))
        assert evaluator.layer_cache_stats.size == 0
        again = evaluator.evaluate_mapping(best.design.mapping)
        assert evaluator.layer_cache_stats.size == len(resnet18.layers)
        assert again.latency == best.latency

    def test_matrix_calls_count_in_call_repeats_as_hits(self, ncf):
        # Without a tier, each call's row requests are designs x layers,
        # its misses are exactly the rows the engine priced, and a repeated
        # call prices its rows again.
        from repro.cost.maestro import CostModel
        from repro.workloads.statics import model_statics

        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        _, _, matrix = _repaired_population(evaluator, 12, seed=59)
        rows = np.concatenate([matrix.data, matrix.data[:4]])
        num_layers = len(model_statics(ncf))
        cost_model = CostModel()
        calls = []
        for _ in range(2):
            before = cost_model.cache_stats
            stats = cost_model.vector_stats
            priced_before = stats["rows_vectorized"] + stats["rows_fallback"]
            cost_model.evaluate_model_matrix(ncf, rows, 64.0, 16.0)
            after = cost_model.cache_stats
            stats = cost_model.vector_stats
            priced = stats["rows_vectorized"] + stats["rows_fallback"]
            hits = after.hits - before.hits
            misses = after.misses - before.misses
            assert hits + misses == len(rows) * num_layers
            assert hits >= 4 * num_layers  # the repeated designs
            assert misses == priced - priced_before
            calls.append((hits, misses))
        assert calls[0] == calls[1]

    def test_cache_clear_drops_both_lrus(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        _, _, matrix = _repaired_population(evaluator, 10, seed=47)
        evaluator.evaluate_matrix(matrix)
        first = evaluator.cost_model.vector_stats["rows_vectorized"]
        evaluator.cache_clear()
        for stats in (evaluator.design_cache_stats, evaluator.layer_cache_stats):
            assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        evaluator.evaluate_matrix(matrix)
        assert evaluator.design_cache_stats.hits == 0
        assert evaluator.cost_model.vector_stats["rows_vectorized"] == 2 * first

    def test_one_cost_model_keeps_models_apart(self, ncf):
        # A cost model that prices ncf rows and then dlrm rows numbers
        # every layer shape apart in its row fingerprints, so no row is
        # ever served another shape's report.
        from repro.cost.maestro import CostModel
        from repro.encoding.genome import GenomeSpace

        other = get_model("dlrm")

        def rows(model, seed):
            space = GenomeSpace.from_model(model, max_pes=1024)
            rng = np.random.default_rng(seed)
            return repaired_matrix(
                GenomeMatrix.from_genomes(space.random_population(10, rng)),
                space,
            ).data

        shared = CostModel()
        shared.evaluate_model_matrix(ncf, rows(ncf, 73), 64.0, 16.0)
        reused = shared.evaluate_model_matrix(other, rows(other, 73), 64.0, 16.0)
        fresh = CostModel().evaluate_model_matrix(other, rows(other, 73), 64.0, 16.0)
        for a, b in zip(reused, fresh):
            assert a.layers == b.layers

    def test_fingerprints_include_the_bandwidths(self, ncf, tmp_path):
        # The row fingerprint must carry the full composite-key context:
        # the same rows priced under different bandwidths may never alias
        # in the persistent tier.
        from repro.cost.maestro import CostModel
        from repro.cost.persist import PersistentLayerCache

        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        _, _, matrix = _repaired_population(evaluator, 10, seed=71)
        shared = CostModel()
        shared.attach_persistent_cache(PersistentLayerCache(tmp_path))
        shared.evaluate_model_matrix(ncf, matrix.data, 100.0, 50.0)
        reused = shared.evaluate_model_matrix(ncf, matrix.data, 1.0, 0.5)
        assert shared.vector_stats["l2_hits"] == 0
        fresh = CostModel().evaluate_model_matrix(ncf, matrix.data, 1.0, 0.5)
        for a, b in zip(reused, fresh):
            assert a.latency == b.latency
            assert a.energy == b.energy
        shared.persistent_cache.close()


class TestTrackerMatrixViews:
    def test_matches_the_per_genome_view(self, resnet18):
        def make():
            evaluator = DesignEvaluator(model=resnet18, platform=EDGE)
            return SearchTracker(
                evaluator, evaluator.genome_space(), sampling_budget=30
            )

        matrix_tracker = make()
        genome_tracker = make()
        rng = np.random.default_rng(53)
        genomes = matrix_tracker.space.random_population(30, rng)
        fits_matrix = matrix_tracker.evaluate_matrix(
            GenomeMatrix.from_genomes(genomes)
        )
        fits_genomes = [
            genome_tracker.evaluate_matrix(GenomeMatrix.from_genomes([genome]))[0]
            for genome in genomes
        ]
        assert fits_matrix == fits_genomes
        assert matrix_tracker.best.fitness == genome_tracker.best.fitness
        assert matrix_tracker.history == genome_tracker.history
        assert matrix_tracker.evaluations == genome_tracker.evaluations
        assert matrix_tracker.batch_calls == 1
        assert matrix_tracker.evaluations == 30

    def test_truncates_at_the_budget(self, ncf):
        evaluator = DesignEvaluator(model=ncf, platform=EDGE)
        tracker = SearchTracker(
            evaluator, evaluator.genome_space(), sampling_budget=5
        )
        rng = np.random.default_rng(59)
        genomes = tracker.space.random_population(9, rng)
        fitnesses = tracker.evaluate_matrix(GenomeMatrix.from_genomes(genomes))
        assert len(fitnesses) == 5
        assert tracker.exhausted
        assert tracker.evaluate_matrix(GenomeMatrix.from_genomes(genomes)) == []

    def test_vector_batch_rides_the_matrix_path(self, ncf):
        def make(budget=12):
            evaluator = DesignEvaluator(model=ncf, platform=EDGE)
            return SearchTracker(
                evaluator, evaluator.genome_space(), sampling_budget=budget
            )

        tracker_batch = make()
        tracker_loop = make()
        rng = np.random.default_rng(61)
        vectors = [tracker_batch.codec.random_vector(rng) for _ in range(12)]
        fits_batch = tracker_batch.evaluate_vector_batch(vectors)
        fits_loop = [
            tracker_loop.evaluate_vector_batch([vector])[0] for vector in vectors
        ]
        assert fits_batch == fits_loop
        assert tracker_batch.history == tracker_loop.history
