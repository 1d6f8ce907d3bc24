"""Legality repair of genomes after genetic perturbation.

The genetic operators are free to produce out-of-range genes; repair clamps
them back into the :class:`GenomeSpace` so that every individual decodes to
a syntactically valid design point (semantic validity — fitting the area
budget — is the constraint checker's job, as in the paper).
"""

from __future__ import annotations

from typing import List

from repro.encoding.genome import Genome, GenomeSpace
from repro.workloads.dims import DIMS


def repair_genome(genome: Genome, space: GenomeSpace) -> Genome:
    """Return ``genome`` clamped into ``space`` (modified in place and returned)."""
    _repair_hw(genome, space)
    for level in genome.levels:
        _repair_order(level.order)
        if level.parallel_dim not in DIMS:
            level.parallel_dim = level.order[0]
        for dim in DIMS:
            bound = space.dim_bounds[dim]
            value = int(level.tiles.get(dim, 1))
            level.tiles[dim] = max(1, min(bound, value))
    return genome


def _repair_hw(genome: Genome, space: GenomeSpace) -> None:
    """Clamp spatial sizes; pin them when the HW is fixed."""
    if space.hw_is_fixed:
        for level, fixed in zip(genome.levels, space.fixed_pe_array):
            level.spatial_size = int(fixed)
        return
    for level in genome.levels:
        level.spatial_size = max(1, min(space.max_pes, int(level.spatial_size)))
    # Keep the PE product within the absolute bound by shrinking the
    # innermost levels first (they are cheapest to re-grow).
    product = genome.num_pes
    for level in reversed(genome.levels):
        if product <= space.max_pes:
            break
        others = product // level.spatial_size
        allowed = max(1, space.max_pes // max(1, others))
        product = others * allowed
        level.spatial_size = allowed


def _repair_order(order: List[str]) -> None:
    """Rebuild ``order`` into a permutation of the six dims, preserving prefix."""
    seen = []
    for dim in order:
        if dim in DIMS and dim not in seen:
            seen.append(dim)
    for dim in DIMS:
        if dim not in seen:
            seen.append(dim)
    order[:] = seen
