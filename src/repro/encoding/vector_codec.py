"""Flat real-vector view of the design-point encoding.

Generic black-box optimizers (CMA-ES, PSO, differential evolution, ...) work
on fixed-length real vectors.  :class:`VectorCodec` decodes a batch of
``[0, 1]^n`` vectors into gene-matrix rows, and encodes a :class:`Genome`
back into a vector:

* one coordinate per level for the spatial size (log scale),
* one coordinate per level selecting the parallel dimension,
* six coordinates per level whose ranks give the loop order,
* six coordinates per level for the tile sizes (log scale).

Every vector decodes to a row inside the genome space, so the black-box
algorithms never see hard failures — only the constraint checker's
penalties, exactly as in the paper's framework.
"""

from __future__ import annotations

import math

import numpy as np

from repro.encoding.genome import Genome, GenomeSpace
from repro.encoding.genome_matrix import LEVEL_WIDTH, GenomeMatrix
from repro.workloads.dims import DIMS

#: Coordinates per level: spatial, parallel-dim selector, 6 order keys, 6 tiles.
_PER_LEVEL = 1 + 1 + len(DIMS) + len(DIMS)


class VectorCodec:
    """Mapping from ``[0, 1]^n`` vectors to gene rows, and from genomes back."""

    def __init__(self, space: GenomeSpace):
        self.space = space
        self.dimension = _PER_LEVEL * space.num_levels

    # -- decoding ----------------------------------------------------------

    def decode_matrix(self, vectors) -> GenomeMatrix:
        """Decode a batch of vectors straight into gene-matrix rows.

        Values are clipped to ``[0, 1]`` first, and no :class:`Genome` is
        constructed — this is how the flat-vector optimizers ((1+1)-ES, DE,
        PSO, CMA) enter the population data path.  Every row is inside the
        space by construction, so :func:`repaired_matrix` returns it
        unchanged and the tracker skips that pass:

        * each level's spatial size lies in ``[1, max(1, left)]``, where
          ``left`` is the PEs the levels above left over, so the PE product
          never exceeds ``max_pes``; fixed hardware takes its PE array,
          which is what repair pins;
        * each tile lies in ``[1, bound]`` of its dimension;
        * each order is an ``argsort``, hence a permutation.
        """
        num_levels = self.space.num_levels
        rows = np.empty((len(vectors), LEVEL_WIDTH * num_levels), dtype=np.int64)
        dims_count = len(DIMS)
        bounds = [self.space.dim_bounds[dim] for dim in DIMS]
        for row, vector in zip(rows, vectors):
            values = np.clip(np.asarray(vector, dtype=float).ravel(), 0.0, 1.0)
            if values.size != self.dimension:
                raise ValueError(
                    f"expected a vector of length {self.dimension}, "
                    f"got {values.size}"
                )
            # Python floats and one row write: NumPy scalar reads and
            # writes cost more than the arithmetic on a lone vector.
            keys = values.tolist()
            genes = []
            remaining_pes = self.space.max_pes
            for level_index in range(num_levels):
                start = level_index * _PER_LEVEL
                spatial = self._decode_spatial(keys[start], level_index, remaining_pes)
                remaining_pes = max(1, remaining_pes // spatial)
                genes.append(spatial)
                genes.append(min(dims_count - 1, int(keys[start + 1] * dims_count)))
                order_keys = values[start + 2 : start + 2 + dims_count]
                genes.extend(np.argsort(order_keys, kind="stable").tolist())
                tiles = start + 2 + dims_count
                genes.extend(
                    _scale_log(keys[tiles + position], 1, bounds[position])
                    for position in range(dims_count)
                )
            row[:] = genes
        return GenomeMatrix(rows, num_levels)

    # -- encoding ----------------------------------------------------------

    def encode(self, genome: Genome) -> np.ndarray:
        """Approximate inverse of :meth:`decode_matrix` (useful for seeding searches)."""
        if genome.num_levels != self.space.num_levels:
            raise ValueError(
                f"genome has {genome.num_levels} levels, codec expects "
                f"{self.space.num_levels}"
            )
        vector = np.zeros(self.dimension, dtype=float)
        remaining_pes = self.space.max_pes
        for level_index, level in enumerate(genome.levels):
            base = level_index * _PER_LEVEL
            bound = max(1, remaining_pes) if not self.space.hw_is_fixed else 1
            vector[base] = _unscale_log(level.spatial_size, 1, max(1, bound))
            remaining_pes = max(1, remaining_pes // max(1, level.spatial_size))
            vector[base + 1] = (DIMS.index(level.parallel_dim) + 0.5) / len(DIMS)
            for rank, dim in enumerate(level.order):
                vector[base + 2 + DIMS.index(dim)] = (rank + 0.5) / len(DIMS)
            for i, dim in enumerate(DIMS):
                vector[base + 2 + len(DIMS) + i] = _unscale_log(
                    level.tiles[dim], 1, self.space.dim_bounds[dim]
                )
        return vector

    def random_vector(self, rng: np.random.Generator) -> np.ndarray:
        """Sample a uniform random vector in ``[0, 1]^n``."""
        return rng.random(self.dimension)

    # -- internals ---------------------------------------------------------

    def _decode_spatial(self, value: float, level_index: int, remaining: int) -> int:
        if self.space.hw_is_fixed:
            return self.space.fixed_pe_array[level_index]
        return _scale_log(value, 1, max(1, remaining))


def _scale_log(value: float, low: int, high: int) -> int:
    """Map ``value`` in [0, 1] to an integer in [low, high] on a log scale."""
    if high <= low:
        return int(low)
    log_low = math.log(low)
    log_high = math.log(high + 1)
    scaled = int(math.exp(log_low + float(value) * (log_high - log_low)))
    return max(low, min(high, scaled))


def _unscale_log(value: int, low: int, high: int) -> float:
    """Map an integer in [low, high] back to [0, 1] on a log scale."""
    if high <= low:
        return 0.5
    log_low = math.log(low)
    log_high = math.log(high + 1)
    return min(1.0, max(0.0, (math.log(max(low, value)) - log_low) / (log_high - log_low)))
