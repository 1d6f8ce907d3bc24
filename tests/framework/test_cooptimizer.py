"""Tests for the co-optimization framework front-end."""


from repro.arch.platform import EDGE
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.objective import Objective
from repro.optim.random_search import RandomSearch


class TestSearch:
    def test_search_respects_sampling_budget(self, tiny_model):
        framework = CoOptimizationFramework(tiny_model, EDGE)
        result = framework.search(RandomSearch(), sampling_budget=50, seed=0)
        assert result.evaluations == 50
        assert result.sampling_budget == 50
        assert result.optimizer_name == "Random"
        assert result.wall_time_seconds > 0

    def test_search_is_deterministic_given_seed(self, tiny_model):
        framework = CoOptimizationFramework(tiny_model, EDGE)
        a = framework.search(RandomSearch(), sampling_budget=40, seed=7)
        b = framework.search(RandomSearch(), sampling_budget=40, seed=7)
        assert a.best_latency == b.best_latency
        assert a.history == b.history

    def test_different_seeds_usually_differ(self, tiny_model):
        framework = CoOptimizationFramework(tiny_model, EDGE)
        a = framework.search(RandomSearch(), sampling_budget=40, seed=1)
        b = framework.search(RandomSearch(), sampling_budget=40, seed=2)
        assert a.history != b.history

    def test_objective_is_forwarded(self, tiny_model):
        framework = CoOptimizationFramework(tiny_model, EDGE, objective=Objective.EDP)
        result = framework.search(RandomSearch(), sampling_budget=30, seed=0)
        if result.found_valid:
            assert result.best.objective is Objective.EDP

    def test_fixed_hardware_search_pins_pe_array(self, tiny_model, small_hardware):
        framework = CoOptimizationFramework(
            tiny_model, EDGE, fixed_hardware=small_hardware
        )
        result = framework.search(RandomSearch(), sampling_budget=30, seed=0)
        assert framework.space.hw_is_fixed
        if result.found_valid:
            assert result.best.design.hardware.pe_array == small_hardware.pe_array

    def test_random_search_finds_valid_edge_design(self, tiny_model):
        framework = CoOptimizationFramework(tiny_model, EDGE)
        result = framework.search(RandomSearch(), sampling_budget=200, seed=0)
        assert result.found_valid
        assert result.best.design.area.total <= EDGE.area_budget_um2
