"""Tile footprint and minimum-buffer-requirement math.

Implements the paper's Fig. 3(f): the buffer at a level must hold the
weight, input and output working sets of the tile processed below it.
The outermost (shared / L2) buffer holds the *macro* tile — the union of the
tiles of all spatially active sub-clusters — while the innermost (per-PE L1)
buffer holds one PE's tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping as TMapping

from repro.mapping.mapping import Mapping
from repro.workloads.dims import DIMS
from repro.workloads.layer import Layer, OpType

OPERANDS = ("W", "I", "O")


def operand_footprint(
    layer: Layer,
    extents: TMapping[str, int],
    stride: int | None = None,
) -> Dict[str, int]:
    """Element counts of W / I / O for a tile with the given dimension extents.

    ``extents`` maps each of the six dimensions to the tile size; the input
    footprint applies the sliding-window halo with the layer's stride.
    """
    stride_value = layer.stride if stride is None else stride
    k = extents["K"]
    c = extents["C"]
    y = extents["Y"]
    x = extents["X"]
    r = extents["R"]
    s = extents["S"]
    in_y = (y - 1) * stride_value + r
    in_x = (x - 1) * stride_value + s
    if layer.op_type is OpType.DWCONV:
        weight = c * r * s
        output = c * y * x
    else:
        weight = k * c * r * s
        output = k * y * x
    inputs = c * in_y * in_x
    return {"W": weight, "I": inputs, "O": output}


def macro_extents(
    level_tiles: TMapping[str, int],
    parallel_dim: str,
    spatial_size: int,
    parent_extents: TMapping[str, int],
) -> Dict[str, int]:
    """Extent covered by all spatially active sub-clusters of one level.

    For the parallel dimension the macro extent is the per-sub-cluster tile
    multiplied by the spatial fan-out, capped at the parent extent; other
    dimensions are shared (multicast) so their macro extent equals the tile.
    """
    macro = {dim: min(level_tiles[dim], parent_extents[dim]) for dim in DIMS}
    covered = level_tiles[parallel_dim] * spatial_size
    macro[parallel_dim] = min(parent_extents[parallel_dim], covered)
    return macro


@dataclass(frozen=True)
class BufferRequirement:
    """Minimum buffer capacities implied by a mapping for one layer.

    ``per_level`` lists, outermost first, the byte footprint that the buffer
    at that level must hold (macro footprint for shared levels, per-PE
    footprint for the innermost level), broken down by operand.
    """

    per_level: tuple
    l2_bytes: int
    l1_bytes_per_pe: int


def buffer_requirements(
    layer: Layer,
    mapping: Mapping,
    bytes_per_element: int = 1,
) -> BufferRequirement:
    """Minimum L2 and per-PE L1 capacities for ``mapping`` on ``layer``.

    This is the paper's buffer-allocation strategy input: DiGamma does not
    search buffer sizes, it allocates exactly these requirements.
    """
    extents = mapping.tile_extents(layer)
    per_level: List[Dict[str, int]] = []
    parent = {dim: layer.dims[dim] for dim in DIMS}
    for index, (level, tile) in enumerate(zip(mapping.levels, extents)):
        innermost = index == mapping.num_levels - 1
        if innermost:
            footprint = operand_footprint(layer, tile)
        else:
            macro = macro_extents(tile, level.parallel_dim, level.spatial_size, parent)
            footprint = operand_footprint(layer, macro)
        entry = dict(footprint)
        entry["total_bytes"] = sum(footprint[op] for op in OPERANDS) * bytes_per_element
        per_level.append(entry)
        parent = tile

    l1_bytes = int(per_level[-1]["total_bytes"])
    if mapping.num_levels == 1:
        l2_bytes = l1_bytes
    else:
        l2_bytes = int(sum(entry["total_bytes"] for entry in per_level[:-1]))
    return BufferRequirement(
        per_level=tuple(per_level),
        l2_bytes=l2_bytes,
        l1_bytes_per_pe=l1_bytes,
    )
