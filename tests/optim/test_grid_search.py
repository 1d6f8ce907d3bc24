"""Tests for the HW-opt grid-search baseline."""

import numpy as np
import pytest

from repro.arch.platform import EDGE
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.optim.grid_search import HardwareGridSearch
from tests.optim.helpers import BatchSpyTracker, make_space


class TestGridConstruction:
    def test_grid_shapes_positive_and_unique(self):
        grid = HardwareGridSearch._build_grid(max_pes=400, budget=200)
        assert grid
        assert len(grid) == len(set(grid))
        for rows, cols in grid:
            assert rows >= 1 and cols >= 1

    def test_grid_respects_budget(self):
        grid = HardwareGridSearch._build_grid(max_pes=400, budget=10)
        assert len(grid) <= 10

    def test_empty_budget(self):
        assert HardwareGridSearch._build_grid(max_pes=400, budget=0) == []

    def test_grid_covers_small_and_large_arrays(self):
        grid = HardwareGridSearch._build_grid(max_pes=444, budget=500)
        totals = [rows * cols for rows, cols in grid]
        assert min(totals) <= 16
        assert max(totals) >= 200


class TestTemplateGenome:
    @pytest.mark.parametrize("style", ["dla", "shi", "eye"])
    def test_template_genome_matches_grid_point(self, style):
        search = HardwareGridSearch(style)
        genome = search._template_genome(make_space(), (8, 16))
        assert genome.pe_array == (8, 16)
        assert genome.num_levels == 2

    def test_name_mentions_dataflow(self):
        assert "dla" in HardwareGridSearch("dla").name
        assert "eye" in HardwareGridSearch("eye").name

    def test_unknown_dataflow_rejected(self):
        with pytest.raises(KeyError):
            HardwareGridSearch("tpu")


class TestBatchedGrid:
    def test_whole_grid_is_priced_in_one_matrix_call(self):
        tracker = BatchSpyTracker(sampling_budget=500)
        HardwareGridSearch("dla").run(tracker, np.random.default_rng(0))
        grid = HardwareGridSearch._build_grid(tracker.space.max_pes, 500)
        assert tracker.batch_calls == 1
        assert tracker.batched_evaluations == tracker.evaluations == len(grid)

    def test_spent_budget_prices_nothing(self):
        tracker = BatchSpyTracker(sampling_budget=3)
        tracker.evaluations = 3
        HardwareGridSearch("dla").run(tracker, np.random.default_rng(0))
        assert tracker.batch_calls == 0


class TestEndToEnd:
    def test_finds_valid_design_on_edge(self, tiny_model):
        framework = CoOptimizationFramework(tiny_model, EDGE)
        result = framework.search(HardwareGridSearch("dla"), sampling_budget=200, seed=0)
        assert result.found_valid
        assert result.best.design.area.total <= EDGE.area_budget_um2

    def test_dla_parallelism_preserved_in_best_design(self, tiny_model):
        framework = CoOptimizationFramework(tiny_model, EDGE)
        result = framework.search(HardwareGridSearch("dla"), sampling_budget=100, seed=0)
        assert result.found_valid
        mapping = result.best.design.mapping
        assert mapping.levels[0].parallel_dim == "K"
        assert mapping.levels[1].parallel_dim == "C"

    def test_grid_search_stops_before_budget_when_grid_is_small(self, tiny_model):
        framework = CoOptimizationFramework(tiny_model, EDGE)
        result = framework.search(HardwareGridSearch("dla"), sampling_budget=5000, seed=0)
        assert result.evaluations <= 5000
