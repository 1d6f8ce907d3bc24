"""Bit-identical parity of the fast evaluation engine vs the reference path.

The fast engine (:mod:`repro.cost.engine`) re-implements the reference
analysis on tuples and sits behind a memo; the hard invariant of the
evaluation-engine refactor is that every field of every
:class:`LayerPerformance` stays *bit-identical* to the original dict-based
implementation.  These tests sweep seeded random repaired genomes over real
models and platforms and compare every field's type and bits (no
tolerances): an int where the reference has a float, or a float that
differs in its last bit, fails.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.arch.platform import CLOUD, EDGE
from repro.cost.maestro import CostModel
from repro.encoding.genome import GenomeSpace
from repro.encoding.repair import repair_genome
from repro.mapping.directives import LevelMapping
from repro.mapping.mapping import Mapping
from repro.workloads.dims import DIMS
from repro.workloads.registry import get_model

FAST = CostModel()
REFERENCE = CostModel(engine="reference")


def _assert_identical(fast_report, reference_report):
    for field in fields(fast_report):
        fast_value = getattr(fast_report, field.name)
        reference_value = getattr(reference_report, field.name)
        assert type(fast_value) is type(reference_value), (
            f"{field.name}: fast={fast_value!r} reference={reference_value!r}"
        )
        if isinstance(fast_value, float):
            fast_value = fast_value.hex()
            reference_value = reference_value.hex()
        assert fast_value == reference_value, (
            f"{field.name}: fast={fast_value!r} reference={reference_value!r}"
        )


def _sweep(
    model_name, platform, num_genomes, seed, num_levels=2, bytes_per_element=1
):
    if bytes_per_element == 1:
        fast_model, reference_model = FAST, REFERENCE
    else:
        fast_model = CostModel(bytes_per_element=bytes_per_element)
        reference_model = CostModel(
            bytes_per_element=bytes_per_element, engine="reference"
        )
    model = get_model(model_name)
    space = GenomeSpace.from_model(model, max_pes=4096, num_levels=num_levels)
    rng = np.random.default_rng(seed)
    for _ in range(num_genomes):
        genome = repair_genome(space.random_genome(rng), space)
        mapping = genome.to_mapping()
        for layer in model.unique_layers():
            fast = fast_model.evaluate_layer(
                layer, mapping, platform.noc_bandwidth, platform.dram_bandwidth
            )
            # The seed implementation clipped eagerly before evaluating.
            reference = reference_model.evaluate_layer(
                layer,
                mapping.clipped_to_layer(layer),
                platform.noc_bandwidth,
                platform.dram_bandwidth,
            )
            _assert_identical(fast, reference)


class TestEnginePacksIdenticalReports:
    @pytest.mark.parametrize("platform", [EDGE, CLOUD], ids=["edge", "cloud"])
    @pytest.mark.parametrize(
        "model_name", ["resnet18", "mobilenet_v2", "bert", "dlrm"]
    )
    def test_random_repaired_genomes(self, platform, model_name):
        _sweep(model_name, platform, num_genomes=12, seed=2022)

    @pytest.mark.parametrize("bytes_per_element", [1, 3])
    @pytest.mark.parametrize("model_name", ["resnet18", "mobilenet_v2"])
    @pytest.mark.parametrize("num_levels", [1, 3, 4])
    def test_non_default_hierarchy_depths(
        self, num_levels, model_name, bytes_per_element
    ):
        _sweep(
            model_name,
            EDGE,
            num_genomes=8,
            seed=7,
            num_levels=num_levels,
            bytes_per_element=bytes_per_element,
        )


class TestCachedEvaluationsAreIdentical:
    def test_second_lookup_hits_and_matches(self, conv_layer, simple_mapping):
        model = CostModel()
        first = model.evaluate_layer(conv_layer, simple_mapping, 32.0, 8.0)
        before = model.cache_stats
        second = model.evaluate_layer(conv_layer, simple_mapping, 32.0, 8.0)
        after = model.cache_stats
        assert after.hits == before.hits + 1
        _assert_identical(first, second)

    def test_disabled_cache_matches_enabled(self, conv_layer, simple_mapping):
        cached = CostModel().evaluate_layer(conv_layer, simple_mapping, 32.0, 8.0)
        uncached = CostModel(cache_size=0).evaluate_layer(
            conv_layer, simple_mapping, 32.0, 8.0
        )
        _assert_identical(cached, uncached)
        assert CostModel(cache_size=0).cache_stats.requests == 0

    def test_same_shape_layers_share_entries_with_correct_names(self):
        from repro.workloads.layer import Layer

        model = CostModel()
        first = Layer.conv2d("a", 16, 32, 8, 3)
        twin = Layer.conv2d("b", 16, 32, 8, 3, count=4)
        mapping = Mapping(levels=(
            LevelMapping(4, "K", tuple(DIMS), {d: 2 for d in DIMS}),
            LevelMapping(4, "C", tuple(DIMS), {d: 1 for d in DIMS}),
        ))
        report_a = model.evaluate_layer(first, mapping, 32.0, 8.0)
        report_b = model.evaluate_layer(twin, mapping, 32.0, 8.0)
        assert model.cache_stats.hits == 1
        assert report_a.layer_name == "a" and report_a.count == 1
        assert report_b.layer_name == "b" and report_b.count == 4
        assert report_a.latency == report_b.latency
        assert report_a.energy == report_b.energy

    def test_distinct_bandwidths_do_not_collide(self, conv_layer, simple_mapping):
        model = CostModel()
        slow = model.evaluate_layer(conv_layer, simple_mapping, 32.0, 8.0)
        fast_bw = model.evaluate_layer(conv_layer, simple_mapping, 64.0, 16.0)
        assert model.cache_stats.hits == 0
        assert slow.latency != fast_bw.latency

    def test_reference_engine_rejects_bad_name(self):
        with pytest.raises(ValueError):
            CostModel(engine="turbo")
