"""HW-opt baseline: grid search over HW configurations with a fixed mapping.

This reproduces the paper's "Grid-S HW + {dla, shi, eye}-like" scheme: the
mapping is a manually designed dataflow template, and the hardware (PE count
and array aspect ratio; buffers follow from the mapping's requirement) is
swept on a grid under the platform's area budget.  The whole grid is one
population: its template genomes are priced in a single gene-matrix call.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.encoding.genome import Genome
from repro.encoding.genome_matrix import GenomeMatrix
from repro.framework.search import SearchTracker
from repro.mapping.dataflows import get_dataflow
from repro.optim.base import Optimizer
from repro.workloads.dims import DIMS
from repro.workloads.layer import Layer, OpType
from repro.workloads.dims import LayerDims


class HardwareGridSearch(Optimizer):
    """Sweep PE count and array shape under a fixed dataflow template."""

    def __init__(self, dataflow: str = "dla"):
        self.dataflow = dataflow
        self.template = get_dataflow(dataflow)
        self.name = f"Grid-S+{dataflow}-like"

    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        space = tracker.space
        grid = self._build_grid(space.max_pes, tracker.remaining)
        if grid:
            tracker.evaluate_matrix(
                GenomeMatrix.from_genomes(
                    [self._template_genome(space, pe_array) for pe_array in grid]
                )
            )

    # -- grid construction ---------------------------------------------------

    @staticmethod
    def _build_grid(max_pes: int, budget: int) -> List[Tuple[int, int]]:
        """PE-array shapes to evaluate: log-spaced totals x aspect-ratio splits."""
        if budget < 1:
            return []
        num_totals = max(4, int(np.sqrt(budget)))
        totals = np.unique(
            np.geomspace(4, max(4, max_pes), num=num_totals).astype(int)
        )
        grid: List[Tuple[int, int]] = []
        for total in totals:
            splits = np.unique(np.geomspace(1, total, num=8).astype(int))
            for rows in splits:
                cols = max(1, int(total) // int(rows))
                grid.append((int(rows), int(cols)))
        # Deduplicate while keeping a deterministic order.
        seen = set()
        unique_grid = []
        for shape in grid:
            if shape not in seen:
                seen.add(shape)
                unique_grid.append(shape)
        return unique_grid[:budget]

    def _template_genome(self, space, pe_array: Tuple[int, int]) -> Genome:
        """Instantiate the dataflow template as a genome for this grid point.

        The template is applied to a synthetic layer whose dimensions are the
        model-wide maxima, so its ``full extent`` tile policies translate to
        the largest tile bounds and clip correctly on every real layer.
        """
        bounds = space.dim_bounds
        synthetic = Layer(
            name="__bounds__",
            op_type=OpType.CONV,
            dims=LayerDims(**{dim: bounds[dim] for dim in DIMS}),
        )
        mapping = self.template(synthetic, pe_array)
        return Genome.from_mapping(mapping)
