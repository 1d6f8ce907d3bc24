"""Vectorized and scalar-fallback rows vs the seed reference implementation.

``tests/cost/test_vector_engine.py`` pins the fallback triggers against the
scalar *fast* engine; these tests close the remaining gap required by the
vector engine's contract: every depth the vector path prices (1-, 2- and
3-level hierarchies) and every row that falls back — >= 2**53 statics and
2**53-scale intermediates — must ALSO reproduce
``CostModel(engine="reference")`` bit for bit, with the per-reason fallback
counters in ``CostModel.vector_stats`` accounting for every such row, on
the gene-matrix entry point, whether it is fed packed mappings or a
repaired genome population.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.arch.platform import EDGE
from repro.cost.maestro import CostModel
from repro.cost.vector_engine import MIN_VECTOR_ROWS
from repro.encoding.genome import GenomeSpace
from repro.encoding.genome_matrix import GenomeMatrix, repaired_matrix
from repro.encoding.repair import repair_genome
from repro.framework.evaluator import DesignEvaluator
from repro.mapping.mapping import uniform_mapping
from repro.workloads.layer import Layer
from repro.workloads.model import Model
from repro.workloads.registry import get_model
from tests.cost.test_vector_engine import pack_mappings


def _random_mappings(model, count, seed, num_levels=2):
    space = GenomeSpace.from_model(model, max_pes=4096, num_levels=num_levels)
    rng = np.random.default_rng(seed)
    return [
        repair_genome(space.random_genome(rng), space).to_mapping()
        for _ in range(count)
    ]


def _assert_layer_fields_identical(batch_performance, reference_performance):
    for batch_layer, reference_layer in zip(
        batch_performance.layers, reference_performance.layers
    ):
        for field in fields(reference_layer):
            batch_value = getattr(batch_layer, field.name)
            reference_value = getattr(reference_layer, field.name)
            assert batch_value == reference_value, (
                f"{field.name}: vector={batch_value!r} "
                f"reference={reference_value!r}"
            )
            assert type(batch_value) is type(reference_value), field.name


class TestFallbacksMatchReference:
    @pytest.mark.parametrize("num_levels", [1, 3])
    def test_non_two_level_hierarchies(self, num_levels):
        # 1- and 3-level hierarchies ride the vector path (no depth
        # fallback) and still match the reference engine bit for bit.
        model = get_model("ncf")
        mappings = _random_mappings(model, 8, seed=101, num_levels=num_levels)
        batch_model = CostModel()
        reference = CostModel(engine="reference")
        batch = batch_model.evaluate_model_matrix(
            model, pack_mappings(mappings), 64.0, 16.0
        )
        stats = batch_model.vector_stats
        assert stats["rows_vectorized"] > 0
        assert stats["rows_fallback"] == 0
        for mapping, performance in zip(mappings, batch):
            _assert_layer_fields_identical(
                performance,
                reference.evaluate_model(model, mapping, 64.0, 16.0),
            )

    def test_oversized_statics(self):
        # macs = 2**60 >= 2**53: the whole layer is non-vectorizable.
        layer = Layer.conv2d("huge", 2**20, 2**20, (2**10, 2**10), 1)
        model = Model(name="huge", layers=(layer,))
        mappings = _random_mappings(model, 3 * MIN_VECTOR_ROWS, seed=103)
        batch_model = CostModel()
        reference = CostModel(engine="reference")
        batch = batch_model.evaluate_model_matrix(
            model, pack_mappings(mappings), 64.0, 16.0
        )
        stats = batch_model.vector_stats
        assert stats["rows_vectorized"] == 0
        assert stats["rows_fallback"] == len(mappings)
        for mapping, performance in zip(mappings, batch):
            _assert_layer_fields_identical(
                performance,
                reference.evaluate_model(model, mapping, 64.0, 16.0),
            )

    def test_oversized_intermediates_fall_back_row_wise(self):
        # Statics stay vectorizable (macs = 2**40), but full-L2 tiles blow
        # the input-halo footprint past 2**53 mid-chain: exactly those rows
        # must be flagged and re-priced by the scalar engine, which in turn
        # mirrors the reference bit for bit.
        layer = Layer.conv2d(
            "strided", 2**10, 1, (2**15, 2**15), 1, stride=2**20
        )
        model = Model(name="strided", layers=(layer,))
        mappings = [uniform_mapping(layer, (4, 4), ("Y", "X"))]
        mappings += _random_mappings(model, 3 * MIN_VECTOR_ROWS, seed=37)
        batch_model = CostModel()
        reference = CostModel(engine="reference")
        batch = batch_model.evaluate_model_matrix(
            model, pack_mappings(mappings), 64.0, 16.0
        )
        stats = batch_model.vector_stats
        assert stats["rows_fallback"] > 0
        assert stats["rows_vectorized"] > 0
        assert (
            stats["rows_fallback"] + stats["rows_vectorized"] == len(mappings)
        )
        for mapping, performance in zip(mappings, batch):
            _assert_layer_fields_identical(
                performance,
                reference.evaluate_model(model, mapping, 64.0, 16.0),
            )


class TestMatrixPathFallbacks:
    """The gene-matrix entry point routes fallback rows identically."""

    def test_oversized_statics_through_evaluate_model_matrix(self):
        layer = Layer.conv2d("huge", 2**20, 2**20, (2**10, 2**10), 1)
        model = Model(name="huge", layers=(layer,))
        space = GenomeSpace.from_model(model, max_pes=1024)
        rng = np.random.default_rng(109)
        genomes = space.random_population(3 * MIN_VECTOR_ROWS, rng)
        matrix = repaired_matrix(GenomeMatrix.from_genomes(genomes), space)
        batch_model = CostModel()
        reference = CostModel(engine="reference")
        performances = batch_model.evaluate_model_matrix(
            model, matrix.data, 64.0, 16.0
        )
        stats = batch_model.vector_stats
        assert stats["rows_vectorized"] == 0
        assert stats["rows_fallback"] > 0
        for index, performance in enumerate(performances):
            _assert_layer_fields_identical(
                performance,
                reference.evaluate_model(
                    model, matrix.genome_at(index).to_mapping(), 64.0, 16.0
                ),
            )

    def test_evaluator_matrix_results_match_reference_evaluator(self):
        layer = Layer.conv2d("huge", 2**20, 2**20, (2**10, 2**10), 1)
        model = Model(name="huge", layers=(layer,))
        vector = DesignEvaluator(model=model, platform=EDGE)
        reference = DesignEvaluator(
            model=model, platform=EDGE, engine="reference", use_cache=False
        )
        space = vector.genome_space()
        rng = np.random.default_rng(113)
        genomes = space.random_population(12, rng)
        matrix = repaired_matrix(GenomeMatrix.from_genomes(genomes), space)
        for result, genome in zip(vector.evaluate_matrix(matrix), genomes):
            want = reference.evaluate_genome(
                repair_genome(genome.copy(), space)
            )
            assert result.fitness == want.fitness
            assert result.latency == want.latency
            assert result.energy == want.energy
        assert vector.cost_model.vector_stats["rows_fallback"] > 0
