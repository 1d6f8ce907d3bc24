"""DiGamma's specialised genetic operators (paper Fig. 4).

Each operator perturbs a specific slice of the HW-Mapping design space in a
structured way instead of re-randomising genes blindly:

==================  ======================================================
``crossover_rows``  blends tiling / parallelism (and therefore derived
                    buffer sizing) between two parents, level by level
``reorder_row``     permutes the loop order of one level (compute order)
``grow_row``        doubles or halves one tile size ("grow / aging"),
                    walking the tiling-and-buffer trade-off smoothly
``mutate_map_row``  re-samples mapping genes: a tile size (preferring
                    divisors of the dimension extent) or the parallel
                    dimension
``mutate_hw_row``   re-sizes or re-shapes the PE array while respecting
                    the platform's maximum PE count, which in turn
                    re-balances the derived buffer allocation
==================  ======================================================

The operators edit one :class:`~repro.encoding.genome_matrix.GenomeMatrix`
row, held as a plain Python list of ints (a ``tolist``'ed row): list
indexing is several times cheaper than NumPy scalar indexing at this
width, and a generation's children fold back into the matrix with one
``np.array`` call.  All but ``crossover_rows`` work in place; the tracker
repairs every matrix it prices
(:func:`repro.encoding.genome_matrix.repaired_matrix`).  Their draw
order is part of the pinned search trajectories
(``tests/optim/test_loop_goldens.py``).

The initial population is sampled as genomes (:func:`seeded_genome`,
:func:`initial_population`, :func:`balance_parallel`) and packed once.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.encoding.genome import Genome, GenomeSpace, log_uniform_int
from repro.encoding.genome_matrix import LEVEL_WIDTH
from repro.workloads.dims import DIMS


def seeded_genome(space: GenomeSpace, rng: np.random.Generator) -> Genome:
    """Sample a domain-informed starting point.

    Random initialisation wastes much of a small sampling budget on designs
    that no competent engineer would draw: tiny PE arrays that leave the
    area budget idle, or spatial mappings over dimensions too small to fill
    the array.  A seeded genome starts from the obvious priors instead —
    a budget-filling, roughly square PE array, parallel dimensions drawn
    from the largest tensor dimensions, and unit parallel tiles so every
    sub-cluster receives work — while leaving the loop order and the
    remaining tile sizes random for the GA to refine.
    """
    genome = space.random_genome(rng)
    if not space.hw_is_fixed:
        total = int(rng.integers(max(1, space.max_pes // 2), space.max_pes + 1))
        rows = max(1, int(round(total ** 0.5)))
        columns = max(1, total // rows)
        sizes = [rows, columns]
        rng.shuffle(sizes)
        for level, size in zip(genome.levels, sizes):
            level.spatial_size = int(size)
        if genome.num_levels > 2:
            for level in genome.levels[2:]:
                level.spatial_size = 1
    large_dims = [dim for dim in DIMS if space.dim_bounds[dim] >= 8] or list(DIMS)
    for level in genome.levels:
        level.parallel_dim = large_dims[rng.integers(len(large_dims))]
    balance_parallel(genome, space)
    return genome


def initial_population(
    space: GenomeSpace,
    population_size: int,
    seeded_fraction: float,
    rng: np.random.Generator,
) -> List[Genome]:
    """Seeded + random starting genomes shared by the GA-family loops.

    The first ``int(population_size * seeded_fraction)`` members come from
    the domain-informed sampler, the rest from the uniform one — the split
    (and its draw order) is part of the pinned search trajectories.
    """
    num_seeded = int(population_size * seeded_fraction)
    return [
        seeded_genome(space, rng) for _ in range(num_seeded)
    ] + space.random_population(population_size - num_seeded, rng)


def balance_parallel(genome: Genome, space: GenomeSpace) -> Genome:
    """Set each level's parallel-dimension tile to one element per sub-cluster.

    With a unit tile the spatial distribution activates
    ``min(pi, extent)`` sub-clusters on every layer — the maximum possible —
    and any surplus extent becomes temporal folds instead of idle hardware.
    Larger parallel tiles can only reduce the number of active sub-clusters
    and inflate the shared-buffer macro tile, so re-balancing after a HW
    perturbation keeps the new array fully utilised across all layer shapes.
    """
    del space  # bounds are not needed: a unit tile is legal everywhere
    for level in genome.levels:
        level.tiles[level.parallel_dim] = 1
    return genome


# -- operators on gene rows ------------------------------------------------


def crossover_rows(
    parent_a: List[int],
    parent_b: List[int],
    num_levels: int,
    rng: np.random.Generator,
) -> List[int]:
    """Blend mapping genes of two parents, level by level; returns a new row.

    Tile sizes are inherited gene-wise from either parent; the parallel
    dimension is inherited per level.  Loop order and HW genes stay with the
    first parent (they have dedicated operators), so crossover explores the
    tiling/parallelism sub-space without scrambling the rest — the
    structured behaviour adapted from GAMMA.
    """
    child = parent_a.copy()
    # One batched draw per child: Generator.random(n) yields the same
    # stream as n scalar draws, at the per-call overhead of one.
    draws = rng.random(7 * num_levels).tolist()
    cursor = 0
    for level in range(num_levels):
        base = level * LEVEL_WIDTH
        for column in range(base + 8, base + 14):
            if draws[cursor] < 0.5:
                child[column] = parent_b[column]
            cursor += 1
        if draws[cursor] < 0.5:
            child[base + 1] = parent_b[base + 1]
        cursor += 1
    return child


def reorder_row(
    row: List[int], num_levels: int, rng: np.random.Generator
) -> List[int]:
    """Perturb the compute order of one randomly chosen level (in place).

    With equal probability either two loop positions are swapped (a local
    move) or one loop is popped and re-inserted elsewhere (a rotation),
    which is how GAMMA steps through the order space.
    """
    base = int(rng.integers(num_levels)) * LEVEL_WIDTH
    if rng.random() < 0.5:
        i, j = rng.choice(6, size=2, replace=False)
        i = base + 2 + int(i)
        j = base + 2 + int(j)
        row[i], row[j] = row[j], row[i]
    else:
        order = row[base + 2 : base + 8]
        source = int(rng.integers(6))
        dim = order.pop(source)
        target = int(rng.integers(len(order) + 1))
        order.insert(target, dim)
        row[base + 2 : base + 8] = order
    return row


def grow_row(
    row: List[int],
    space: GenomeSpace,
    num_levels: int,
    rng: np.random.Generator,
) -> List[int]:
    """Grow or age (shrink) one tile size by a factor of two (in place).

    Doubling a tile grows the derived buffer allocation and data reuse;
    halving ("aging") releases buffer area back to the budget.  Moving by
    factors of two walks the trade-off smoothly instead of jumping to an
    arbitrary value.
    """
    base = int(rng.integers(num_levels)) * LEVEL_WIDTH
    dim_index = int(rng.integers(len(DIMS)))
    bound = space.dim_bounds[DIMS[dim_index]]
    column = base + 8 + dim_index
    if rng.random() < 0.5:
        row[column] = min(bound, max(1, row[column]) * 2)
    else:
        row[column] = max(1, row[column] // 2)
    return row


def mutate_map_row(
    row: List[int],
    space: GenomeSpace,
    num_levels: int,
    rng: np.random.Generator,
) -> List[int]:
    """Re-sample one mapping gene of one level (in place).

    Tile sizes are re-sampled preferring divisors of the dimension bound
    (divisible tiles avoid padding waste); alternatively the parallel
    dimension is re-drawn, biased towards dimensions that are actually
    large enough to fill the level's spatial fan-out.  Occasionally the
    parallel tiles are re-balanced against the spatial sizes (see
    :func:`balance_parallel_row`).
    """
    base = int(rng.integers(num_levels)) * LEVEL_WIDTH
    choice = rng.random()
    if choice < 0.6:
        dim_index = int(rng.integers(len(DIMS)))
        bound = space.dim_bounds[DIMS[dim_index]]
        row[base + 8 + dim_index] = _sample_tile(bound, rng)
    elif choice < 0.85:
        row[base + 1] = _sample_parallel_index(row[base], space, rng)
    else:
        balance_parallel_row(row, num_levels)
    return row


def mutate_hw_row(
    row: List[int],
    space: GenomeSpace,
    num_levels: int,
    rng: np.random.Generator,
) -> List[int]:
    """Perturb the PE array size or aspect ratio, the HW genes (in place).

    Either the total PE count is re-sampled within the platform's bound
    (biased towards budget-filling sizes — idle budget is wasted budget), or
    a factor of two is transferred between two levels (re-shaping the array
    at a constant PE count).  The parallel-dimension tiles are re-balanced
    afterwards so the new array stays spatially utilised: this is the
    "HW exploration respects the HW-mapping interaction" property of
    Sec. IV-C.  Because buffers are allocated from the mapping's
    requirement, the operator also re-balances the compute-to-memory area
    split.
    """
    if space.hw_is_fixed:
        return row
    if rng.random() < 0.5 or num_levels == 1:
        if rng.random() < 0.5:
            # Explore the full range of PE counts.
            total = log_uniform_int(rng, 1, space.max_pes)
        else:
            # Exploit the upper half of the budget, where strong designs live.
            total = int(rng.integers(max(1, space.max_pes // 4), space.max_pes + 1))
        _split_pes_row(row, num_levels, total, rng)
    else:
        indices = rng.choice(num_levels, size=2, replace=False)
        giver = int(indices[0]) * LEVEL_WIDTH
        taker = int(indices[1]) * LEVEL_WIDTH
        if row[giver] >= 2:
            row[giver] = max(1, row[giver] // 2)
            row[taker] = max(1, row[taker] * 2)
    if rng.random() < 0.75:
        balance_parallel_row(row, num_levels)
    return row


def balance_parallel_row(row: List[int], num_levels: int) -> List[int]:
    """:func:`balance_parallel` on a gene row (in place, draws nothing)."""
    for level in range(num_levels):
        base = level * LEVEL_WIDTH
        row[base + 8 + row[base + 1]] = 1
    return row


# -- helpers ---------------------------------------------------------------


#: Divisor lists are pure functions of the bound and bounds are few (one
#: per dimension per model), so they are computed once instead of per draw.
_DIVISOR_CACHE: dict = {}


def _divisors(bound: int) -> List[int]:
    cached = _DIVISOR_CACHE.get(bound)
    if cached is None:
        cached = [d for d in range(1, bound + 1) if bound % d == 0]
        _DIVISOR_CACHE[bound] = cached
    return cached


def _sample_tile(bound: int, rng: np.random.Generator) -> int:
    """Sample a tile size in [1, bound], preferring divisors of ``bound``."""
    if bound == 1:
        return 1
    if rng.random() < 0.5:
        divisors = _divisors(bound)
        return divisors[rng.integers(len(divisors))]
    return log_uniform_int(rng, 1, bound)


def _sample_parallel_index(
    spatial_size: int,
    space: GenomeSpace,
    rng: np.random.Generator,
) -> int:
    """Pick a parallel dimension index, biased towards ones that can fill the array."""
    candidates = [
        index
        for index, dim in enumerate(DIMS)
        if space.dim_bounds[dim] >= max(2, spatial_size // 2)
    ]
    if candidates and rng.random() < 0.8:
        return candidates[rng.integers(len(candidates))]
    return int(rng.integers(len(DIMS)))


def _split_pes_row(
    row: List[int], num_levels: int, total: int, rng: np.random.Generator
) -> None:
    """Distribute ``total`` PEs across the row's levels as a random split."""
    remaining = max(1, total)
    for index in range(num_levels):
        levels_left = num_levels - index
        if levels_left == 1:
            row[index * LEVEL_WIDTH] = remaining
            break
        # Sample this level's share in log space so both tall and wide
        # aspect ratios are reachable.
        share = log_uniform_int(rng, 1, max(1, remaining))
        row[index * LEVEL_WIDTH] = share
        remaining = max(1, remaining // share)
