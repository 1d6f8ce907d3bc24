"""Tests for the flat real-vector codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.genome import GenomeSpace
from repro.encoding.vector_codec import VectorCodec
from repro.workloads.dims import DIMS


@pytest.fixture
def space(tiny_model):
    return GenomeSpace.from_model(tiny_model, max_pes=256, num_levels=2)


@pytest.fixture
def codec(space):
    return VectorCodec(space)


def _decode(codec, vector):
    """The genome of ``vector``'s decoded gene row."""
    return codec.decode_matrix([vector]).genome_at(0)


class TestDecode:
    def test_dimension(self, codec, space):
        assert codec.dimension == space.num_levels * (2 + 2 * len(DIMS))

    def test_decode_rejects_wrong_length(self, codec):
        with pytest.raises(ValueError):
            _decode(codec, np.zeros(codec.dimension + 1))

    def test_decode_produces_valid_genome(self, codec, space, rng):
        for _ in range(50):
            genome = _decode(codec, codec.random_vector(rng))
            assert genome.num_levels == space.num_levels
            assert genome.num_pes <= space.max_pes
            for level in genome.levels:
                assert sorted(level.order) == sorted(DIMS)
                assert level.parallel_dim in DIMS
                for dim in DIMS:
                    assert 1 <= level.tiles[dim] <= space.dim_bounds[dim]

    def test_values_outside_unit_box_are_clipped(self, codec):
        low = _decode(codec, np.full(codec.dimension, -5.0))
        high = _decode(codec, np.full(codec.dimension, +5.0))
        assert low.num_pes >= 1
        assert high.num_pes >= 1

    def test_extreme_vectors_hit_bounds(self, codec, space):
        zeros = _decode(codec, np.zeros(codec.dimension))
        ones = _decode(codec, np.ones(codec.dimension))
        assert zeros.num_pes == 1
        for level in zeros.levels:
            assert all(level.tiles[d] == 1 for d in DIMS)
        for level, dim in zip(ones.levels, ["K"]):
            assert level.tiles[dim] == space.dim_bounds[dim]

    def test_decode_is_deterministic(self, codec, rng):
        vector = codec.random_vector(rng)
        a = _decode(codec, vector).to_mapping()
        b = _decode(codec, vector).to_mapping()
        assert a == b


class TestEncode:
    def test_roundtrip_preserves_structure(self, codec, space, rng):
        for _ in range(20):
            genome = space.random_genome(rng)
            decoded = _decode(codec, codec.encode(genome))
            for original, restored in zip(genome.levels, decoded.levels):
                assert restored.parallel_dim == original.parallel_dim
                assert list(restored.order) == list(original.order)

    def test_roundtrip_tile_sizes_close_in_log_space(self, codec, space, rng):
        for _ in range(20):
            genome = space.random_genome(rng)
            decoded = _decode(codec, codec.encode(genome))
            for original, restored in zip(genome.levels, decoded.levels):
                for dim in DIMS:
                    ratio = restored.tiles[dim] / original.tiles[dim]
                    assert 0.4 <= ratio <= 2.5

    def test_encode_rejects_level_mismatch(self, codec, space, rng):
        from repro.encoding.genome import Genome, LevelGenes

        genome = Genome(levels=[LevelGenes(1, "K", list(DIMS), {d: 1 for d in DIMS})])
        with pytest.raises(ValueError):
            codec.encode(genome)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_encode_stays_in_unit_box(self, seed):
        space = GenomeSpace(
            dim_bounds={"K": 256, "C": 512, "Y": 64, "X": 8, "R": 3, "S": 3},
            max_pes=256,
            num_levels=2,
        )
        codec = VectorCodec(space)
        generator = np.random.default_rng(seed)
        genome = space.random_genome(generator)
        vector = codec.encode(genome)
        assert np.all(vector >= 0.0)
        assert np.all(vector <= 1.0)


class TestFixedHardware:
    def test_decode_respects_fixed_pe_array(self, tiny_model, rng):
        space = GenomeSpace.from_model(tiny_model, max_pes=512, num_levels=2,
                                       fixed_pe_array=(8, 16))
        codec = VectorCodec(space)
        for _ in range(10):
            genome = _decode(codec, codec.random_vector(rng))
            assert genome.pe_array == (8, 16)
