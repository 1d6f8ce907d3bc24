"""Tests for the design evaluator (decode + score + constraint check)."""

import numpy as np
import pytest

from repro.arch.hardware import HardwareConfig
from repro.arch.platform import EDGE
from repro.encoding.genome import Genome
from repro.encoding.genome_matrix import GenomeMatrix
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.evaluator import INVALID_FITNESS_SCALE, DesignEvaluator
from repro.framework.objective import Objective
from repro.mapping.dataflows import dla_like
from repro.mapping.mapping import uniform_mapping


@pytest.fixture
def evaluator(tiny_model):
    return DesignEvaluator(model=tiny_model, platform=EDGE)


def template_genome(layer, pe_array=(8, 8)):
    return Genome.from_mapping(dla_like(layer, pe_array))


class TestEvaluateGenome:
    def test_valid_genome_gets_negative_objective_fitness(self, evaluator, tiny_model):
        genome = template_genome(tiny_model.layers[0])
        result = evaluator.evaluate_genome(genome)
        assert result.valid
        assert result.fitness == pytest.approx(-result.objective_value)
        assert result.objective is Objective.LATENCY
        assert result.objective_value == pytest.approx(result.design.latency)
        assert result.genome is genome

    def test_buffer_allocation_matches_requirement(self, evaluator, tiny_model):
        genome = template_genome(tiny_model.layers[0])
        result = evaluator.evaluate_genome(genome)
        hw = result.design.hardware
        perf = result.design.performance
        assert hw.l1_size == perf.l1_requirement_bytes
        assert hw.l2_size == perf.l2_requirement_bytes
        assert hw.pe_array == genome.pe_array

    def test_over_budget_genome_is_invalid_and_heavily_penalised(self, evaluator, tiny_model):
        # A PE array far beyond the edge budget must be rejected.
        genome = template_genome(tiny_model.layers[0], pe_array=(200, 200))
        result = evaluator.evaluate_genome(genome)
        assert not result.valid
        assert result.fitness <= -INVALID_FITNESS_SCALE
        assert result.violations

    def test_every_valid_fitness_beats_every_invalid_fitness(self, evaluator, tiny_model):
        valid = evaluator.evaluate_genome(template_genome(tiny_model.layers[0]))
        invalid = evaluator.evaluate_genome(
            template_genome(tiny_model.layers[0], pe_array=(200, 200))
        )
        assert valid.fitness > invalid.fitness

    def test_worse_violation_gets_worse_fitness(self, evaluator, tiny_model):
        bad = evaluator.evaluate_genome(
            template_genome(tiny_model.layers[0], pe_array=(100, 10))
        )
        worse = evaluator.evaluate_genome(
            template_genome(tiny_model.layers[0], pe_array=(200, 200))
        )
        assert not bad.valid and not worse.valid
        assert worse.fitness < bad.fitness

    def test_objective_selection(self, tiny_model):
        energy_evaluator = DesignEvaluator(
            model=tiny_model, platform=EDGE, objective=Objective.ENERGY
        )
        genome = template_genome(tiny_model.layers[0])
        result = energy_evaluator.evaluate_genome(genome)
        assert result.objective_value == pytest.approx(result.design.energy)

    def test_buffer_allocation_fill_uses_leftover_area(self, tiny_model):
        exact = DesignEvaluator(model=tiny_model, platform=EDGE)
        fill = DesignEvaluator(model=tiny_model, platform=EDGE, buffer_allocation="fill")
        genome = template_genome(tiny_model.layers[0])
        hw_exact = exact.evaluate_genome(genome).design.hardware
        hw_fill = fill.evaluate_genome(genome).design.hardware
        assert hw_fill.l2_size >= hw_exact.l2_size

    def test_invalid_buffer_allocation_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            DesignEvaluator(model=tiny_model, platform=EDGE, buffer_allocation="maximal")

    @pytest.mark.parametrize("engine", ["vector", "fast"])
    def test_element_width_below_one_rejected(self, tiny_model, engine):
        with pytest.raises(ValueError):
            DesignEvaluator(
                model=tiny_model, platform=EDGE, bytes_per_element=0, engine=engine
            )


class TestFixedHardware:
    def test_fixed_hw_is_returned_verbatim(self, tiny_model, small_hardware):
        evaluator = DesignEvaluator(
            model=tiny_model, platform=EDGE, fixed_hardware=small_hardware
        )
        genome = template_genome(tiny_model.layers[0], pe_array=small_hardware.pe_array)
        result = evaluator.evaluate_genome(genome)
        assert result.design.hardware is small_hardware

    def test_mapping_exceeding_fixed_buffers_is_invalid(self, tiny_model):
        cramped = HardwareConfig(pe_array=(8, 16), l1_size=2, l2_size=16)
        evaluator = DesignEvaluator(
            model=tiny_model, platform=EDGE, fixed_hardware=cramped
        )
        genome = template_genome(tiny_model.layers[0], pe_array=(8, 16))
        result = evaluator.evaluate_genome(genome)
        assert not result.valid

    def test_genome_space_pins_fixed_pe_array(self, tiny_model, small_hardware):
        evaluator = DesignEvaluator(
            model=tiny_model, platform=EDGE, fixed_hardware=small_hardware
        )
        space = evaluator.genome_space()
        assert space.hw_is_fixed
        assert space.fixed_pe_array == small_hardware.pe_array


def varied_genomes(layer, count=6):
    """A small population with distinct PE arrays (all within budget)."""
    shapes = [(8, 8), (4, 4), (16, 4), (8, 4), (4, 8), (2, 8)]
    return [template_genome(layer, shapes[i % len(shapes)]) for i in range(count)]


class TestContextManager:
    def test_exit_flushes_and_closes_the_cache_tier(self, tiny_model, tmp_path):
        genomes = varied_genomes(tiny_model.layers[0], count=4)
        owners = {
            "evaluator": lambda path: DesignEvaluator(
                model=tiny_model, platform=EDGE, cache_dir=path
            ),
            "framework": lambda path: CoOptimizationFramework(
                tiny_model, EDGE, cache_dir=path
            ),
        }
        for name, make in owners.items():
            with make(str(tmp_path / name)) as owner:
                evaluator = getattr(owner, "evaluator", owner)
                evaluator.evaluate_matrix(GenomeMatrix.from_genomes(genomes))
                tier = evaluator.persistent_cache
                assert tier._descriptor is not None, name
                assert not tier.index_path.exists(), name
            assert tier.index_path.name == "layers.index"
            assert tier.index_path.exists(), name
            assert tier._descriptor is None, name


class TestEvaluateMapping:
    def test_single_mapping(self, evaluator, tiny_model):
        mapping = uniform_mapping(tiny_model.layers[0], (8, 8), ("K", "C"))
        result = evaluator.evaluate_mapping(mapping)
        assert result.design.mapping == mapping
        assert result.genome is None

    def test_per_layer_provider_requires_pe_array(self, evaluator, tiny_model):
        provider = lambda layer: uniform_mapping(layer, (8, 8), ("K", "C"))
        with pytest.raises(ValueError):
            evaluator.evaluate_mapping(provider)
        result = evaluator.evaluate_mapping(provider, pe_array=(8, 8))
        assert result.design.hardware.pe_array == (8, 8)

    def test_per_layer_provider_rejects_pe_count_below_one(
        self, evaluator, tiny_model
    ):
        def provider(layer):
            return uniform_mapping(layer, (8, 8), ("K", "C"))

        with pytest.raises(ValueError):
            evaluator.evaluate_mapping(provider, pe_array=(0, 16))
        result = evaluator.evaluate_mapping(provider, pe_array=(np.int64(8), 8))
        assert all(type(size) is int for size in result.design.hardware.pe_array)

    def test_genome_space_bounds_follow_platform(self, evaluator):
        space = evaluator.genome_space()
        assert space.max_pes == evaluator.area_model.max_pes_within(EDGE.area_budget_um2)
