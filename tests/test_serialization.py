"""Tests for JSON serialization of designs and results."""

import pytest

from repro.arch.hardware import HardwareConfig
from repro.arch.platform import EDGE
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.mapping.dataflows import dla_like
from repro.optim.digamma import DiGamma
from repro.serialization import (
    design_from_dict,
    design_to_dict,
    genome_from_dict,
    genome_to_dict,
    hardware_from_dict,
    hardware_to_dict,
    load_json,
    mapping_from_dict,
    mapping_to_dict,
    save_json,
    pareto_result_from_dict,
    pareto_result_to_dict,
    result_from_dict,
    result_to_dict,
    search_result_from_dict,
    search_result_to_dict,
)
from repro.encoding.genome import Genome
from repro.framework.pareto import ParetoResult
from repro.framework.search import SearchResult
from repro.optim.registry import get_optimizer
from repro.workloads.registry import get_model


class TestHardwareRoundTrip:
    def test_round_trip(self, small_hardware):
        rebuilt = hardware_from_dict(hardware_to_dict(small_hardware))
        assert rebuilt == small_hardware

    def test_defaults_filled_for_missing_optional_fields(self):
        data = hardware_to_dict(HardwareConfig())
        del data["bytes_per_element"]
        del data["frequency_mhz"]
        rebuilt = hardware_from_dict(data)
        assert rebuilt.bytes_per_element == 1
        assert rebuilt.frequency_mhz == 1000.0


class TestMappingAndGenomeRoundTrip:
    def test_mapping_round_trip(self, conv_layer):
        mapping = dla_like(conv_layer, (8, 16))
        rebuilt = mapping_from_dict(mapping_to_dict(mapping))
        assert rebuilt == mapping

    def test_genome_round_trip(self, conv_layer):
        genome = Genome.from_mapping(dla_like(conv_layer, (4, 4)))
        rebuilt = genome_from_dict(genome_to_dict(genome))
        assert rebuilt.to_mapping() == genome.to_mapping()

    def test_json_serializable(self, conv_layer, tmp_path):
        mapping = dla_like(conv_layer, (8, 16))
        path = save_json(mapping_to_dict(mapping), tmp_path / "mapping.json")
        assert path.exists()
        assert mapping_from_dict(load_json(path)) == mapping


class TestSearchResultSerialization:
    @pytest.fixture(scope="class")
    def search_result(self):
        from repro.workloads.registry import get_model

        framework = CoOptimizationFramework(get_model("ncf"), EDGE)
        return framework.search(DiGamma(), sampling_budget=100, seed=0)

    def test_design_dict_fields(self, search_result):
        assert search_result.found_valid
        data = design_to_dict(search_result.best.design)
        assert set(data) == {"model", "hardware", "mapping", "area", "metrics", "per_layer"}
        assert data["metrics"]["latency_cycles"] == search_result.best_latency
        assert data["metrics"]["area_um2"] <= EDGE.area_budget_um2
        assert len(data["per_layer"]) >= 1

    def test_search_result_dict(self, search_result):
        data = search_result_to_dict(search_result)
        assert data["optimizer"] == "DiGamma"
        assert data["found_valid"] is True
        assert data["evaluations"] == 100
        assert "best" in data
        assert "genome" in data["best"]
        rebuilt_hw = hardware_from_dict(data["best"]["hardware"])
        assert rebuilt_hw == search_result.best.design.hardware

    def test_save_and_load_round_trip(self, search_result, tmp_path):
        path = save_json(search_result_to_dict(search_result), tmp_path / "out" / "r.json")
        loaded = load_json(path)
        assert loaded["sampling_budget"] == 100
        mapping = mapping_from_dict(loaded["best"]["mapping"])
        assert mapping == search_result.best.design.mapping

    def test_design_round_trip(self, search_result):
        design = search_result.best.design
        rebuilt = design_from_dict(design_to_dict(design))
        assert rebuilt.hardware == design.hardware
        assert rebuilt.mapping == design.mapping
        assert rebuilt.latency == design.latency
        assert rebuilt.energy == design.energy
        assert rebuilt.area.total == design.area.total
        assert rebuilt.latency_area_product == design.latency_area_product
        assert rebuilt.performance.layers == design.performance.layers

    def test_search_result_round_trip(self, search_result):
        rebuilt = search_result_from_dict(search_result_to_dict(search_result))
        assert rebuilt.optimizer_name == search_result.optimizer_name
        assert rebuilt.evaluations == search_result.evaluations
        assert rebuilt.sampling_budget == search_result.sampling_budget
        assert rebuilt.wall_time_seconds == search_result.wall_time_seconds
        assert rebuilt.history == search_result.history
        assert rebuilt.found_valid
        assert rebuilt.best_latency == search_result.best_latency
        assert rebuilt.best_latency_area_product == (
            search_result.best_latency_area_product
        )
        assert rebuilt.best_objective_value == search_result.best_objective_value
        assert rebuilt.best.fitness == search_result.best.fitness
        assert rebuilt.best.objective == search_result.best.objective
        assert rebuilt.best.genome is not None
        assert (
            rebuilt.best.genome.to_mapping()
            == search_result.best.genome.to_mapping()
        )

    def test_search_result_round_trip_through_json(self, search_result, tmp_path):
        path = save_json(search_result_to_dict(search_result), tmp_path / "result.json")
        rebuilt = search_result_from_dict(load_json(path))
        assert rebuilt.best_latency == search_result.best_latency
        assert rebuilt.best_latency_area_product == (
            search_result.best_latency_area_product
        )
        assert rebuilt.summary() == search_result.summary()

    def test_search_result_without_valid_best(self):
        data = {
            "optimizer": "Random",
            "evaluations": 5,
            "sampling_budget": 5,
            "wall_time_seconds": 0.1,
            "found_valid": False,
            "history": [],
        }
        rebuilt = search_result_from_dict(data)
        assert rebuilt.best is None
        assert not rebuilt.found_valid
        assert rebuilt.best_latency == float("inf")


class TestParetoResultSerialization:
    @pytest.fixture(scope="class")
    def front(self):
        framework = CoOptimizationFramework(
            get_model("ncf"), EDGE, objectives="latency,energy,area"
        )
        try:
            return framework.pareto_search(
                get_optimizer("nsga2"), sampling_budget=100, seed=0
            )
        finally:
            framework.close()

    def test_round_trip_is_lossless(self, front):
        rebuilt = pareto_result_from_dict(pareto_result_to_dict(front))
        assert rebuilt.optimizer_name == front.optimizer_name
        assert rebuilt.objectives == front.objectives
        assert rebuilt.evaluations == front.evaluations
        assert rebuilt.sampling_budget == front.sampling_budget
        assert rebuilt.wall_time_seconds == front.wall_time_seconds
        assert rebuilt.batch_calls == front.batch_calls
        assert rebuilt.front_values == front.front_values
        for original, copy in zip(front.front, rebuilt.front):
            assert copy.fitness == original.fitness
            assert copy.objective is original.objective
            assert copy.objective_value == original.objective_value
            assert copy.design.hardware == original.design.hardware
            assert copy.design.mapping == original.design.mapping
            assert copy.design.area == original.design.area
            assert copy.design.performance.latency == original.design.performance.latency
            if original.genome is not None:
                assert copy.genome.to_mapping() == original.genome.to_mapping()
        assert rebuilt.is_non_dominated() == front.is_non_dominated()

    def test_json_serializable(self, front, tmp_path):
        path = save_json(pareto_result_to_dict(front), tmp_path / "front.json")
        rebuilt = pareto_result_from_dict(load_json(path))
        assert rebuilt.front_values == front.front_values

    def test_result_dispatchers(self, front):
        payload = result_to_dict(front)
        assert "front" in payload
        assert isinstance(result_from_dict(payload), ParetoResult)

    def test_scalar_results_still_dispatch_to_search_result(self):
        framework = CoOptimizationFramework(get_model("ncf"), EDGE)
        try:
            scalar = framework.search(DiGamma(), sampling_budget=60, seed=0)
        finally:
            framework.close()
        payload = result_to_dict(scalar)
        assert "front" not in payload
        rebuilt = result_from_dict(payload)
        assert isinstance(rebuilt, SearchResult)
        assert rebuilt.best.fitness == scalar.best.fitness
