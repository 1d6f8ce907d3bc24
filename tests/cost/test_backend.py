"""The pluggable cost-backend seam and the ZigZag-style backend.

The zigzag backend is an *independently coded* per-layer cost model, so
these tests pin its contract rather than its exact numbers: that it is a
:class:`CostModel` with its own persistent-tier namespace and a single
engine, exact agreement with the analytic backend on the
shared modeling ground (footprint geometry, buffer sizing, PE counting,
total loop trips), and the stationarity lower-bound relationship on the
quantities the two models intentionally count differently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.energy import EnergyModel
from repro.arch.platform import get_platform
from repro.cost.backend import BACKENDS, create_backend
from repro.cost.engine import energy_coefficients
from repro.cost.maestro import CostModel
from repro.cost.persist import cache_namespace
from repro.cost.zigzag import ZigZagCostModel
from repro.encoding.genome import GenomeSpace
from repro.encoding.repair import repair_genome
from repro.framework.evaluator import DesignEvaluator
from repro.workloads.registry import get_model


def _random_mappings(model, count, seed, num_levels=2):
    space = GenomeSpace.from_model(model, max_pes=4096, num_levels=num_levels)
    rng = np.random.default_rng(seed)
    return [
        repair_genome(space.random_genome(rng), space).to_mapping()
        for _ in range(count)
    ]


def _evaluate_each(backend, model, mappings):
    return [
        backend.evaluate_model(model, mapping, 64.0, 16.0) for mapping in mappings
    ]


class TestFactory:
    def test_analytic_builds_cost_model(self):
        backend = create_backend("analytic", bytes_per_element=2)
        assert isinstance(backend, CostModel)
        assert backend.bytes_per_element == 2

    def test_zigzag_builds_zigzag_model(self):
        backend = create_backend("zigzag", cache_size=7)
        assert isinstance(backend, ZigZagCostModel)
        assert backend.cache_stats.maxsize == 7

    def test_unknown_backend_names_valid_choices(self):
        with pytest.raises(ValueError) as excinfo:
            create_backend("timeloop")
        message = str(excinfo.value)
        for name in BACKENDS:
            assert name in message
        assert "timeloop" in message

    @pytest.mark.parametrize("name", BACKENDS)
    def test_every_backend_is_a_cost_model(self, name):
        assert isinstance(create_backend(name), CostModel)

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("bytes_per_element", [1, 2])
    def test_l2_namespace_is_pinned(self, name, bytes_per_element):
        # Every L2 digest is scoped by this namespace: if it changed, every
        # existing persistent store would silently turn into misses.
        energy_model = EnergyModel()
        backend = create_backend(
            name, energy_model=energy_model, bytes_per_element=bytes_per_element
        )
        assert backend._l2_namespace == cache_namespace(
            name, bytes_per_element, energy_coefficients(energy_model)
        )

    def test_backends_have_distinct_l2_namespaces(self):
        analytic, zigzag = (create_backend(name) for name in BACKENDS)
        assert analytic._l2_namespace != zigzag._l2_namespace


class TestZigZagEngine:
    """The zigzag backend has one engine; the reference engine is analytic."""

    def test_reference_engine_is_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            ZigZagCostModel(engine="reference")

    def test_fitnesses_do_not_depend_on_the_engine(self):
        model = get_model("ncf")
        mappings = _random_mappings(model, 30, seed=11)

        def fitnesses(backend, engine):
            evaluator = DesignEvaluator(
                model, get_platform("edge"), backend=backend, engine=engine
            )
            return [evaluator.evaluate_mapping(m).fitness for m in mappings]

        zigzag = fitnesses("zigzag", "vector")
        assert fitnesses("zigzag", "fast") == zigzag
        assert fitnesses("zigzag", "reference") == zigzag
        assert fitnesses("analytic", "reference") != zigzag


class TestZigZagAgreement:
    """Shared ground agrees exactly; everything else is lower-bounded."""

    @pytest.mark.parametrize("num_levels", [1, 2, 3])
    def test_shared_geometry_and_bounds(self, num_levels):
        model = get_model("ncf")
        mappings = _random_mappings(model, 24, seed=5, num_levels=num_levels)
        analytic = create_backend("analytic")
        zigzag = create_backend("zigzag")
        for mapping in mappings:
            a = analytic.evaluate_model(model, mapping, 64.0, 16.0)
            z = zigzag.evaluate_model(model, mapping, 64.0, 16.0)
            for la, lz in zip(a.layers, z.layers):
                # Exact: pure functions of the shared geometry.
                assert la.l1_requirement_bytes == lz.l1_requirement_bytes
                assert la.l2_requirement_bytes == lz.l2_requirement_bytes
                assert la.num_pes == lz.num_pes
                assert la.active_pes == lz.active_pes
                assert la.macs == lz.macs
                assert la.compute_cycles == pytest.approx(
                    lz.compute_cycles, rel=1e-9
                )
                # Bounded: maximal stationarity only removes traffic, and
                # dropping the fill term only shortens latency.
                slack = 1.0 + 1e-9
                assert lz.l2_to_l1_bytes <= la.l2_to_l1_bytes * slack
                assert lz.dram_bytes <= la.dram_bytes * slack
                assert lz.latency <= la.latency * slack
                assert lz.energy <= la.energy * slack


class TestZigZagPlumbing:
    def test_layer_cache_round_trip(self):
        model = get_model("ncf")
        mappings = _random_mappings(model, 4, seed=9)
        backend = create_backend("zigzag")
        first = _evaluate_each(backend, model, mappings)
        misses = backend.cache_stats.misses
        assert misses > 0
        again = _evaluate_each(backend, model, mappings)
        assert backend.cache_stats.misses == misses
        assert backend.cache_stats.hits > 0
        for a, b in zip(first, again):
            assert a.latency == b.latency
            assert a.energy == b.energy

    def test_vector_stats_has_every_standard_key(self):
        stats = create_backend("zigzag").vector_stats
        for key in (
            "rows_vectorized",
            "rows_fallback",
            "fallback_statics_overflow",
            "fallback_intermediate_overflow",
            "fallback_small_batch",
        ):
            assert stats[key] == 0

    def test_matrix_path_is_rejected(self):
        backend = create_backend("zigzag")
        with pytest.raises(ValueError, match="analytic"):
            backend.evaluate_model_matrix(None, None, 64.0, 16.0)

    def test_cache_clear_resets_counters(self):
        model = get_model("ncf")
        backend = create_backend("zigzag")
        _evaluate_each(backend, model, _random_mappings(model, 2, seed=3))
        backend.cache_clear()
        assert backend.cache_stats.size == 0
        assert backend.cache_stats.hits == 0
