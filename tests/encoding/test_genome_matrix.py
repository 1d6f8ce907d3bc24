"""The gene-matrix population representation.

The contract: a :class:`GenomeMatrix` row carries exactly the genes of its
:class:`Genome`, vectorized repair is bit-identical to ``repair_genome``
member by member, a repaired row's cache key equals the genome's, and the
flat-vector codec decodes straight into rows that repair leaves unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.area import AreaModel
from repro.arch.platform import get_platform
from repro.encoding.genome import GenomeSpace
from repro.encoding.genome_matrix import (
    LEVEL_WIDTH,
    GenomeMatrix,
    genome_to_genes,
    mapping_from_fingerprint,
    mapping_from_row,
    repaired_matrix,
    row_cache_key,
    row_to_genome,
)
from repro.encoding.repair import repair_genome
from repro.encoding.vector_codec import VectorCodec
from repro.workloads.registry import get_model


def _space(num_levels=2, fixed=None):
    return GenomeSpace(
        dim_bounds={"K": 64, "C": 48, "Y": 16, "X": 16, "R": 3, "S": 3},
        max_pes=256,
        num_levels=num_levels,
        fixed_pe_array=fixed,
    )


def _population(space, count, seed, corrupt=False):
    rng = np.random.default_rng(seed)
    genomes = space.random_population(count, rng)
    if corrupt:
        for genome in genomes[: count // 2]:
            genome.levels[0].spatial_size = int(rng.integers(-2, 100000))
            genome.levels[-1].tiles["K"] = int(rng.integers(-3, 99999))
            genome.levels[-1].tiles["Y"] = 0
    return genomes


class TestRoundTrip:
    @pytest.mark.parametrize("num_levels", [1, 2, 3])
    def test_genomes_survive_the_matrix(self, num_levels):
        space = _space(num_levels=num_levels)
        genomes = _population(space, 12, seed=1)
        matrix = GenomeMatrix.from_genomes(genomes)
        assert matrix.data.shape == (12, LEVEL_WIDTH * num_levels)
        for index, genome in enumerate(genomes):
            back = matrix.genome_at(index)
            for original, rebuilt in zip(genome.levels, back.levels):
                assert rebuilt.spatial_size == original.spatial_size
                assert rebuilt.parallel_dim == original.parallel_dim
                assert rebuilt.order == original.order
                assert rebuilt.tiles == {
                    dim: int(size) for dim, size in original.tiles.items()
                }

    def test_gene_list_matches_row(self):
        space = _space()
        genome = _population(space, 1, seed=2)[0]
        row = GenomeMatrix.from_genomes([genome]).data[0]
        assert genome_to_genes(genome) == row.tolist()
        assert row_to_genome(row, 2).to_mapping() == genome.to_mapping()

    def test_empty_population_is_rejected(self):
        with pytest.raises(ValueError):
            GenomeMatrix.from_genomes([])


class TestRepairParity:
    @pytest.mark.parametrize("fixed", [None, (8, 16)], ids=["free-hw", "fixed-hw"])
    def test_bit_identical_to_repair_genome(self, fixed):
        space = _space(fixed=fixed)
        genomes = _population(space, 40, seed=3, corrupt=True)
        repaired = repaired_matrix(GenomeMatrix.from_genomes(genomes), space)
        for index, genome in enumerate(genomes):
            want = repair_genome(genome.copy(), space)
            assert repaired.genome_at(index).cache_key() == want.cache_key()

    def test_three_level_pe_product_shrinks_innermost_first(self):
        space = _space(num_levels=3)
        genomes = _population(space, 30, seed=4)
        for genome in genomes:
            for level in genome.levels:
                level.spatial_size = 200  # 200^3 >> max_pes
        repaired = repaired_matrix(GenomeMatrix.from_genomes(genomes), space)
        for index, genome in enumerate(genomes):
            want = repair_genome(genome.copy(), space)
            assert repaired.genome_at(index).cache_key() == want.cache_key()

    def test_original_matrix_is_untouched(self):
        space = _space()
        genomes = _population(space, 5, seed=5, corrupt=True)
        matrix = GenomeMatrix.from_genomes(genomes)
        before = matrix.data.copy()
        repaired_matrix(matrix, space)
        assert (matrix.data == before).all()


class TestKeysAndFingerprints:
    def test_row_cache_key_matches_genome_cache_key(self):
        space = _space()
        genomes = _population(space, 20, seed=6, corrupt=True)
        repaired = repaired_matrix(GenomeMatrix.from_genomes(genomes), space)
        for index, genome in enumerate(genomes):
            want = repair_genome(genome.copy(), space).cache_key()
            assert row_cache_key(repaired.data[index].tolist(), 2) == want

    def test_mapping_rebuilds_from_row_and_fingerprint(self):
        space = _space()
        genomes = _population(space, 8, seed=7)
        repaired = repaired_matrix(GenomeMatrix.from_genomes(genomes), space)
        for index, genome in enumerate(genomes):
            want = repair_genome(genome.copy(), space).to_mapping()
            row = repaired.data[index]
            assert mapping_from_row(row, 2) == want
            assert mapping_from_fingerprint(row.tobytes(), 2) == want


#: A fixed PE array per hierarchy depth, for the fixed-hardware spaces.
_FIXED_PE_ARRAYS = {1: (64,), 2: (8, 16), 3: (4, 8, 2), 4: (2, 4, 2, 4)}


def _decoder_vectors(dimension, rng):
    """Random, constant, out-of-box and near-edge vectors for the decoder."""
    vectors = [rng.random(dimension) for _ in range(300)]
    vectors += [np.full(dimension, value) for value in (0.0, 1.0, -5.0, 5.0)]
    edges = np.array([0.0, 1.0, 1.0 - 1e-6])
    vectors += [rng.choice(edges, dimension) for _ in range(100)]
    return vectors


class TestCodecDecodeMatrix:
    @pytest.mark.parametrize("platform", ["edge", "cloud"])
    @pytest.mark.parametrize("model", ["resnet18", "mobilenet_v2", "ncf", "bert"])
    def test_decoded_rows_are_already_repaired(self, model, platform):
        # The tracker prices decoded rows without repairing them, so
        # repair must leave every decoded row exactly as it is.
        max_pes = AreaModel().max_pes_within(get_platform(platform).area_budget_um2)
        rng = np.random.default_rng(8)
        for num_levels in (1, 2, 3, 4):
            for fixed in (None, _FIXED_PE_ARRAYS[num_levels]):
                space = GenomeSpace.from_model(
                    get_model(model),
                    max_pes=max_pes,
                    num_levels=num_levels,
                    fixed_pe_array=fixed,
                )
                codec = VectorCodec(space)
                decoded = codec.decode_matrix(_decoder_vectors(codec.dimension, rng))
                repaired = repaired_matrix(decoded, space)
                assert np.array_equal(repaired.data, decoded.data), (
                    num_levels,
                    fixed,
                )

    def test_rejects_wrong_dimension(self):
        codec = VectorCodec(_space())
        with pytest.raises(ValueError):
            codec.decode_matrix([np.zeros(codec.dimension - 1)])
