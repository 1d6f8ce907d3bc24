"""Tests for DiGamma's specialised genetic operators."""

import numpy as np
import pytest

from repro.encoding.genome import GenomeSpace
from repro.encoding.genome_matrix import LEVEL_WIDTH, genome_to_genes
from repro.optim.digamma import operators
from repro.workloads.dims import DIMS
from tests.optim.helpers import make_space


@pytest.fixture
def space():
    return make_space(max_pes=256)


def random_row(space, rng):
    return genome_to_genes(space.random_genome(rng))


@pytest.fixture
def parents(space, rng):
    return random_row(space, rng), random_row(space, rng)


def levels(row, num_levels=2):
    """Per-level ``(spatial, parallel index, order, tiles)`` of a gene row."""
    return [
        (row[base], row[base + 1], row[base + 2 : base + 8], row[base + 8 : base + 14])
        for base in range(0, num_levels * LEVEL_WIDTH, LEVEL_WIDTH)
    ]


def pe_count(row, num_levels=2):
    count = 1
    for spatial, _, _, _ in levels(row, num_levels):
        count *= spatial
    return count


class TestCrossover:
    def test_child_genes_come_from_parents(self, parents, rng):
        parent_a, parent_b = parents
        child = operators.crossover_rows(parent_a, parent_b, 2, rng)
        for level, a_level, b_level in zip(
            levels(child), levels(parent_a), levels(parent_b)
        ):
            for tile, a_tile, b_tile in zip(level[3], a_level[3], b_level[3]):
                assert tile in (a_tile, b_tile)
            assert level[1] in (a_level[1], b_level[1])

    def test_order_and_hw_stay_with_first_parent(self, parents, rng):
        parent_a, parent_b = parents
        child = operators.crossover_rows(parent_a, parent_b, 2, rng)
        for level, a_level in zip(levels(child), levels(parent_a)):
            assert level[2] == a_level[2]
            assert level[0] == a_level[0]

    def test_parents_not_modified(self, parents, rng):
        parent_a, parent_b = parents
        before_a = list(parent_a)
        before_b = list(parent_b)
        operators.crossover_rows(parent_a, parent_b, 2, rng)
        assert parent_a == before_a
        assert parent_b == before_b


class TestReorder:
    def test_order_stays_a_permutation(self, space, rng):
        for _ in range(30):
            row = random_row(space, rng)
            operators.reorder_row(row, 2, rng)
            for _, _, order, _ in levels(row):
                assert sorted(order) == list(range(len(DIMS)))

    def test_only_order_changes(self, space, rng):
        row = random_row(space, rng)
        before = [(spatial, parallel, tiles) for spatial, parallel, _, tiles in levels(row)]
        operators.reorder_row(row, 2, rng)
        after = [(spatial, parallel, tiles) for spatial, parallel, _, tiles in levels(row)]
        assert after == before

    def test_eventually_changes_the_order(self, space, rng):
        row = random_row(space, rng)
        original = [order for _, _, order, _ in levels(row)]
        changed = False
        for _ in range(20):
            operators.reorder_row(row, 2, rng)
            if [order for _, _, order, _ in levels(row)] != original:
                changed = True
                break
        assert changed


class TestGrow:
    def test_moves_by_a_factor_of_two_and_stays_bounded(self, space, rng):
        for _ in range(50):
            row = random_row(space, rng)
            before = [tiles for _, _, _, tiles in levels(row)]
            operators.grow_row(row, space, 2, rng)
            after = [tiles for _, _, _, tiles in levels(row)]
            differences = [
                (index, position)
                for index in range(len(before))
                for position in range(len(DIMS))
                if before[index][position] != after[index][position]
            ]
            assert len(differences) <= 1
            for index, position in differences:
                bound = space.dim_bounds[DIMS[position]]
                old, new = before[index][position], after[index][position]
                assert new in (min(bound, old * 2), max(1, old // 2))

    def test_never_leaves_bounds(self, space, rng):
        row = random_row(space, rng)
        for _ in range(100):
            operators.grow_row(row, space, 2, rng)
            for _, _, _, tiles in levels(row):
                for dim, tile in zip(DIMS, tiles):
                    assert 1 <= tile <= space.dim_bounds[dim]


class TestMutateMap:
    def test_only_mapping_genes_change(self, space, rng):
        for _ in range(30):
            row = random_row(space, rng)
            before = [(spatial, order) for spatial, _, order, _ in levels(row)]
            operators.mutate_map_row(row, space, 2, rng)
            assert [(spatial, order) for spatial, _, order, _ in levels(row)] == before

    def test_tiles_stay_in_bounds(self, space, rng):
        row = random_row(space, rng)
        for _ in range(100):
            operators.mutate_map_row(row, space, 2, rng)
            for _, parallel, _, tiles in levels(row):
                for dim, tile in zip(DIMS, tiles):
                    assert 1 <= tile <= space.dim_bounds[dim]
                assert 0 <= parallel < len(DIMS)


class TestMutateHW:
    def test_respects_max_pes(self, space, rng):
        row = random_row(space, rng)
        for _ in range(100):
            operators.mutate_hw_row(row, space, 2, rng)
            assert pe_count(row) <= space.max_pes * 2  # aspect-ratio transfer slack

    def test_noop_when_hw_fixed(self, rng):
        fixed_space = GenomeSpace(
            dim_bounds={d: 8 for d in DIMS},
            max_pes=256,
            num_levels=2,
            fixed_pe_array=(8, 16),
        )
        row = random_row(fixed_space, rng)
        before = [spatial for spatial, _, _, _ in levels(row)]
        for _ in range(20):
            operators.mutate_hw_row(row, fixed_space, 2, rng)
        assert [spatial for spatial, _, _, _ in levels(row)] == before

    def test_non_parallel_tiles_untouched(self, space, rng):
        row = random_row(space, rng)
        before = levels(row)
        operators.mutate_hw_row(row, space, 2, rng)
        for (_, parallel, _, old_tiles), (_, _, _, tiles) in zip(before, levels(row)):
            for position in range(len(DIMS)):
                if position != parallel:
                    assert tiles[position] == old_tiles[position]

    def test_eventually_changes_the_array(self, space, rng):
        row = random_row(space, rng)
        original = [spatial for spatial, _, _, _ in levels(row)]
        changed = False
        for _ in range(30):
            operators.mutate_hw_row(row, space, 2, rng)
            if [spatial for spatial, _, _, _ in levels(row)] != original:
                changed = True
                break
        assert changed


class TestBalanceParallel:
    def test_parallel_tiles_become_one(self, space, rng):
        for _ in range(20):
            genome = space.random_genome(rng)
            operators.balance_parallel(genome, space)
            for level in genome.levels:
                assert level.tiles[level.parallel_dim] == 1

    def test_other_tiles_spatial_sizes_and_orders_unchanged(self, space, rng):
        genome = space.random_genome(rng)
        pe_array = genome.pe_array
        orders = [list(level.order) for level in genome.levels]
        other_tiles = [
            {dim: level.tiles[dim] for dim in DIMS if dim != level.parallel_dim}
            for level in genome.levels
        ]
        operators.balance_parallel(genome, space)
        assert genome.pe_array == pe_array
        assert [list(level.order) for level in genome.levels] == orders
        for level, before in zip(genome.levels, other_tiles):
            for dim, value in before.items():
                assert level.tiles[dim] == value

    def test_full_utilization_after_balancing(self, space, rng):
        # With unit parallel tiles the number of spatial chunks equals the
        # parent extent, so no sub-cluster can sit idle on large dimensions.
        from repro.cost.reuse import analyze_levels
        from repro.workloads.dims import LayerDims
        from repro.workloads.layer import Layer, OpType

        layer = Layer(
            name="big",
            op_type=OpType.CONV,
            dims=LayerDims(**{dim: space.dim_bounds[dim] for dim in DIMS}),
        )
        genome = space.random_genome(rng)
        operators.balance_parallel(genome, space)
        analyses = analyze_levels(layer, genome.to_mapping())
        outer = analyses[0]
        assert outer.active == min(
            outer.spatial_size, space.dim_bounds[outer.parallel_dim]
        )


class TestRngStreamEquivalence:
    """The batched/indexing draw forms must consume the identical stream.

    The operators replaced scalar ``rng.random()`` loops with one
    ``rng.random(n)`` call and ``rng.choice(seq)`` with
    ``seq[rng.integers(len(seq))]``; both substitutions draw the exact same
    values from NumPy's bit generator, which is what keeps every recorded
    search trajectory reproducible.  These tests pin that NumPy contract.
    """

    def test_batched_random_matches_scalar_draws(self):
        a = np.random.default_rng(123)
        b = np.random.default_rng(123)
        assert [float(x) for x in a.random(14)] == [b.random() for _ in range(14)]
        # Streams stay aligned afterwards.
        assert a.integers(1000) == b.integers(1000)

    def test_integers_indexing_matches_choice(self):
        items = list(DIMS)
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        for _ in range(50):
            assert str(a.choice(items)) == items[b.integers(len(items))]
        assert a.integers(1000) == b.integers(1000)

    def test_crossover_draws_seven_per_level(self):
        space = make_space()
        rng = np.random.default_rng(11)
        parent_a = random_row(space, rng)
        parent_b = random_row(space, rng)
        before = np.random.default_rng(42)
        child = operators.crossover_rows(parent_a, parent_b, space.num_levels, before)
        replay = np.random.default_rng(42)
        replay.random(7 * space.num_levels)
        # Both generators are now at the same point in the stream.
        assert before.integers(10**6) == replay.integers(10**6)
        assert len(child) == len(parent_a)
