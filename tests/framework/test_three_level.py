"""Tests for three-level cluster hierarchies (the clustering dimension).

The paper's encoding generalises beyond the default two-level (L2 + L1)
accelerator: "a 3-level hierarchy (i.e., several 2D arrays) can also be
described" (Sec. III-C).  These tests exercise the whole stack — cost model,
encoding, repair, search — with ``num_levels=3``.
"""

import pytest

from repro.arch.platform import EDGE
from repro.cost.maestro import CostModel
from repro.encoding.genome import GenomeSpace
from repro.encoding.repair import repair_genome
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.search import SearchTracker
from repro.mapping.directives import LevelMapping
from repro.mapping.mapping import Mapping
from repro.mapping.tiles import buffer_requirements
from repro.optim.digamma import DiGamma
from repro.workloads.dims import DIMS
from repro.workloads.layer import Layer


@pytest.fixture
def three_level_mapping():
    outer = LevelMapping(
        spatial_size=2, parallel_dim="K", order=DIMS,
        tiles={"K": 16, "C": 64, "Y": 7, "X": 28, "R": 3, "S": 3},
    )
    middle = LevelMapping(
        spatial_size=4, parallel_dim="Y", order=("Y", "X", "K", "C", "R", "S"),
        tiles={"K": 8, "C": 16, "Y": 1, "X": 7, "R": 3, "S": 3},
    )
    inner = LevelMapping(
        spatial_size=8, parallel_dim="C", order=("C", "K", "R", "S", "Y", "X"),
        tiles={"K": 1, "C": 2, "Y": 1, "X": 1, "R": 3, "S": 3},
    )
    return Mapping(levels=(outer, middle, inner))


class TestCostModelThreeLevels:
    def test_evaluation_produces_consistent_report(self, conv_layer, three_level_mapping):
        report = CostModel().evaluate_layer(conv_layer, three_level_mapping, 64.0, 16.0)
        assert report.num_pes == 2 * 4 * 8
        assert report.latency >= report.compute_cycles
        assert report.dram_bytes >= sum(conv_layer.tensor_sizes().values())

    def test_buffer_requirements_have_three_levels(self, conv_layer, three_level_mapping):
        requirement = buffer_requirements(conv_layer, three_level_mapping)
        assert len(requirement.per_level) == 3
        # The shared (non-innermost) levels together form the L2 requirement.
        assert requirement.l2_bytes == sum(
            entry["total_bytes"] for entry in requirement.per_level[:-1]
        )

    def test_tile_extents_nest(self, conv_layer, three_level_mapping):
        extents = three_level_mapping.tile_extents(conv_layer)
        for outer_extent, inner_extent in zip(extents, extents[1:]):
            for dim in DIMS:
                assert inner_extent[dim] <= outer_extent[dim]


class TestEncodingThreeLevels:
    def test_random_genomes_and_repair(self, tiny_model, rng):
        space = GenomeSpace.from_model(tiny_model, max_pes=512, num_levels=3)
        for _ in range(20):
            genome = space.random_genome(rng)
            assert genome.num_levels == 3
            repair_genome(genome, space)
            assert genome.num_pes <= space.max_pes

    def test_vector_codec_three_levels(self, tiny_model, rng):
        from repro.encoding.vector_codec import VectorCodec

        space = GenomeSpace.from_model(tiny_model, max_pes=512, num_levels=3)
        codec = VectorCodec(space)
        assert codec.dimension == 3 * 14
        genome = codec.decode_matrix([codec.random_vector(rng)]).genome_at(0)
        assert genome.num_levels == 3


class TestSearchThreeLevels:
    def test_digamma_finds_valid_three_level_design(self, tiny_model):
        framework = CoOptimizationFramework(tiny_model, EDGE, num_levels=3)
        result = framework.search(DiGamma(), sampling_budget=250, seed=0)
        assert result.found_valid
        design = result.best.design
        assert design.hardware.num_levels == 3
        assert design.area.total <= EDGE.area_budget_um2

    def test_three_level_search_engages_the_vector_path(self, tiny_model):
        # Depth is a parameter of the vector engine, not a fallback
        # trigger: a three-level search must price its populations on the
        # vector path (rows actually vectorized, none falling back).
        framework = CoOptimizationFramework(tiny_model, EDGE, num_levels=3)
        result = framework.search(DiGamma(), sampling_budget=250, seed=0)
        assert result.found_valid
        stats = framework.evaluator.cost_model.vector_stats
        assert stats["rows_vectorized"] > 0
        assert stats["rows_fallback"] == 0

    def test_three_level_search_runs_the_matrix_loop(self, tiny_model, monkeypatch):
        # The generation loop itself is depth-general: a three-level
        # search feeds its gene matrices to the tracker.
        matrix_calls = []
        evaluate_matrix = SearchTracker.evaluate_matrix

        def spy_matrix(tracker, matrix):
            matrix_calls.append(matrix.num_levels)
            return evaluate_matrix(tracker, matrix)

        monkeypatch.setattr(SearchTracker, "evaluate_matrix", spy_matrix)
        framework = CoOptimizationFramework(tiny_model, EDGE, num_levels=3)
        result = framework.search(DiGamma(), sampling_budget=250, seed=0)
        assert result.evaluations == 250
        assert len(matrix_calls) > 1
        assert set(matrix_calls) == {3}

    def test_real_layer_three_level_vs_two_level(self):
        # Both hierarchies must produce sane designs for a real conv layer.
        layer = Layer.conv2d("conv", 64, 128, 28, 3)
        from repro.workloads.model import build_model

        model = build_model("single", [layer])
        for levels in (2, 3):
            framework = CoOptimizationFramework(model, EDGE, num_levels=levels)
            result = framework.search(DiGamma(), sampling_budget=200, seed=1)
            assert result.found_valid, f"{levels}-level search failed"
