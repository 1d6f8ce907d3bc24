"""The fast-path layer evaluation engine.

This module re-implements :meth:`CostModel.evaluate_layer` on plain tuples
indexed by dimension position instead of per-dimension dict lookups.  The
arithmetic mirrors the reference implementation in
:mod:`repro.cost.maestro` operation for operation — integer quantities are
exact, and every floating-point accumulation happens in the same order — so
the engine is bit-identical to the reference path (enforced by the parity
tests in ``tests/cost/test_engine_parity.py``).

The engine consumes:

* :class:`~repro.workloads.statics.LayerStatics` — per-layer invariants
  computed once per unique layer shape, and
* a *layer mapping key* — the per-level ``(spatial_size, parallel_index,
  order_indexes)`` statics plus the tile sizes clipped to the layer, built
  by :func:`layer_mapping_key`.

The key doubles as the memoization key for per-layer cost caching: two
(layer, mapping) pairs with equal keys have identical cost reports.

One body, :func:`evaluate_layer_key`, prices every hierarchy depth.  It
prices every single design, runs every ``engine="fast"`` search and is the
vector engine's fallback for rows it cannot price exactly.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.arch.energy import EnergyModel
from repro.cost.performance import LayerPerformance
from repro.mapping.mapping import Mapping
from repro.workloads.statics import REDUCTION_INDEXES, LayerStatics


def energy_coefficients(
    energy_model: EnergyModel,
) -> Tuple[float, float, float, float]:
    """(MAC, L1, L2, DRAM) coefficients in the order the engine consumes them."""
    return (
        energy_model.mac_energy,
        energy_model.l1_energy_per_byte,
        energy_model.l2_energy_per_byte,
        energy_model.dram_energy_per_byte,
    )


def make_report(
    layer_name: str,
    latency: float,
    compute_cycles: float,
    noc_cycles: float,
    dram_cycles: float,
    macs: int,
    l2_to_l1_bytes: float,
    dram_bytes: float,
    l1_access_bytes: float,
    energy: float,
    active_pes: int,
    num_pes: int,
    l1_requirement_bytes: int,
    l2_requirement_bytes: int,
    count: int,
) -> LayerPerformance:
    """Build a LayerPerformance without the frozen-dataclass __init__ cost.

    ``LayerPerformance`` stores its fields in the instance dict, so a bulk
    dict update is equivalent to (and ~3x cheaper than) the generated
    ``__init__``'s per-field ``object.__setattr__`` calls.
    """
    report = object.__new__(LayerPerformance)
    report.__dict__.update(
        layer_name=layer_name,
        latency=latency,
        compute_cycles=compute_cycles,
        noc_cycles=noc_cycles,
        dram_cycles=dram_cycles,
        macs=macs,
        l2_to_l1_bytes=l2_to_l1_bytes,
        dram_bytes=dram_bytes,
        l1_access_bytes=l1_access_bytes,
        energy=energy,
        active_pes=active_pes,
        num_pes=num_pes,
        l1_requirement_bytes=l1_requirement_bytes,
        l2_requirement_bytes=l2_requirement_bytes,
        count=count,
    )
    return report

def report_values(report: LayerPerformance) -> tuple:
    """Cacheable scalar fields of a report (everything but name and count).

    GC-untracked (a flat tuple of numbers), so a full cache does not slow
    down cyclic garbage collections the way thousands of live report
    objects would.  ``make_report(layer.name, *values, layer.count)``
    reconstitutes the report for any same-shaped layer.  The field order is
    the contract shared by the layer-report cache and the vector engine's
    column output.
    """
    values = report.__dict__
    return (
        values["latency"],
        values["compute_cycles"],
        values["noc_cycles"],
        values["dram_cycles"],
        values["macs"],
        values["l2_to_l1_bytes"],
        values["dram_bytes"],
        values["l1_access_bytes"],
        values["energy"],
        values["active_pes"],
        values["num_pes"],
        values["l1_requirement_bytes"],
        values["l2_requirement_bytes"],
    )


#: One level of a layer mapping key: ``((spatial_size, parallel_index,
#: order_indexes), clipped_tiles)``.
LevelKey = Tuple[Tuple[int, int, Tuple[int, ...]], Tuple[int, ...]]

#: A full layer mapping key, outermost level first.
LayerMappingKey = Tuple[LevelKey, ...]


def layer_mapping_key(statics: LayerStatics, mapping: Mapping) -> LayerMappingKey:
    """Canonical key of ``mapping`` applied to a layer with ``statics``.

    Tile sizes are clipped level by level against the layer's dimensions
    (exactly like :meth:`Mapping.clipped_to_layer`), so syntactically
    different mappings that decode to the same effective per-layer schedule
    share one key.
    """
    parent = statics.dims
    parts: List[LevelKey] = []
    for level in mapping.levels:
        clipped = tuple(map(min, level.tiles_tuple, parent))
        parts.append((level.static_key, clipped))
        parent = clipped
    return tuple(parts)


def _order_positions(
    statics: LayerStatics, order: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """(W, I, O) relevant-dimension positions within ``order`` (memoized).

    The scan an operand fetch count needs — "innermost relevant loop that
    actually iterates" — only visits the operand's relevant positions, and
    those depend on the loop order and the operator type alone, so they are
    memoized per statics instance keyed on the order.
    """
    trio = statics.order_positions.get(order)
    if trio is None:
        trio = tuple(
            tuple(
                position
                for position, dim in enumerate(order)
                if dim in relevant
            )
            for relevant in (
                statics.weight_indexes,
                statics.input_indexes,
                statics.output_indexes,
            )
        )
        statics.order_positions[order] = trio
    return trio


def evaluate_layer_key(
    statics: LayerStatics,
    key: LayerMappingKey,
    noc_bandwidth: float,
    dram_bandwidth: float,
    bytes_per_element: int,
    energy: Tuple[float, float, float, float],
    layer_name: str,
    count: int,
) -> LayerPerformance:
    """Evaluate one layer under one clipped mapping key.

    Mirrors the reference :meth:`CostModel.evaluate_layer` bit for bit; see
    the module docstring for the contract.  One pass walks the levels,
    outermost first, carrying the trip product of the levels above (it
    multiplies the NoC traffic into each level) and the number of spatially
    distinct copies of each operand.  Footprints are used where the
    reference uses them: level 0's macro tile gives the DRAM traffic, the
    L2 fill and the L2 size; each middle level's macro tile adds to the L2
    size; the tiles below level 0 give the NoC traffic; the innermost tile
    gives the L1 size and the L1 fill.  A one-level hierarchy sizes both
    buffers from its raw tile.  The macro tiles of the analysis serve as
    the buffer macros because ``min(parent, tile * spatial)`` and
    ``min(parent, tile * active)`` coincide (``tile * chunks`` always
    covers the parent extent).
    """
    bpe = bytes_per_element
    rel_w = statics.weight_indexes
    rel_i = statics.input_indexes
    rel_o = statics.output_indexes
    stride = statics.stride
    depthwise = statics.is_depthwise
    order_positions = statics.order_positions
    last = len(key) - 1
    parent = statics.dims
    steps_above = 1
    num_pes = 1
    active_pes = 1
    distinct_w = distinct_i = distinct_o = 1
    l2_to_l1_bytes = 0.0
    for index, ((spatial, par, order), tile) in enumerate(key):
        # -- reuse analysis (reference: reuse.analyze_levels) --------------
        t0, t1, t2, t3, t4, t5 = tile
        p0, p1, p2, p3, p4, p5 = parent
        base = (
            -(-p0 // t0),
            -(-p1 // t1),
            -(-p2 // t2),
            -(-p3 // t3),
            -(-p4 // t4),
            -(-p5 // t5),
        )
        chunks = base[par]
        active = spatial if spatial < chunks else chunks
        trips = base[:par] + (-(-chunks // active),) + base[par + 1:]
        product = 1
        prefix = []
        for dim in order:
            product *= trips[dim]
            prefix.append(product)

        # -- operand fetches (reference: reuse.operand_fetches) ------------
        # The trip prefix up to the operand's innermost relevant loop that
        # iterates; loops with one trip are transparent.
        trio = order_positions.get(order)
        if trio is None:
            trio = _order_positions(statics, order)
        pos_w, pos_i, pos_o = trio
        fetch_w = 1
        for position in reversed(pos_w):
            if trips[order[position]] > 1:
                fetch_w = prefix[position]
                break
        fetch_i = 1
        for position in reversed(pos_i):
            if trips[order[position]] > 1:
                fetch_i = prefix[position]
                break
        fetch_o = 1
        for position in reversed(pos_o):
            if trips[order[position]] > 1:
                fetch_o = prefix[position]
                break

        # -- spatially distinct copies (reference: spatial_distinct_factor)
        if par in rel_w:
            distinct_w *= active
        if par in rel_i:
            distinct_i *= active
        if par in rel_o or par in REDUCTION_INDEXES:
            distinct_o *= active

        if index or not last:
            # The raw tile: NoC traffic into this level, and the L1 when
            # this level is the innermost.
            in_y = (t2 - 1) * stride + t4
            in_x = (t3 - 1) * stride + t5
            if depthwise:
                tile_w = t1 * t4 * t5
                tile_o = t1 * t2 * t3
            else:
                tile_w = t0 * t1 * t4 * t5
                tile_o = t0 * t2 * t3
            tile_i = t1 * in_y * in_x
            if index:
                # reference: CostModel._on_chip_traffic
                l2_to_l1_bytes += (
                    steps_above * fetch_w * tile_w * distinct_w * bpe
                )
                l2_to_l1_bytes += (
                    steps_above * fetch_i * tile_i * distinct_i * bpe
                )
                l2_to_l1_bytes += (
                    steps_above * fetch_o * tile_o * distinct_o * bpe
                )
        if index < last or not last:
            # The macro tile all active sub-clusters cover: the L2 share of
            # this level, and the DRAM traffic at level 0.
            covered = tile[par] * active
            extent = parent[par]
            m0, m1, m2, m3, m4, m5 = tile[:par] + (
                (extent if extent < covered else covered),
            ) + tile[par + 1:]
            in_y = (m2 - 1) * stride + m4
            in_x = (m3 - 1) * stride + m5
            if depthwise:
                macro_w = m1 * m4 * m5
                macro_o = m1 * m2 * m3
            else:
                macro_w = m0 * m1 * m4 * m5
                macro_o = m0 * m2 * m3
            macro_i = m1 * in_y * in_x
            if index:
                l2_requirement += (macro_w + macro_i + macro_o) * bpe
            else:
                # reference: CostModel._dram_traffic
                dram_bytes = 0.0
                dram_bytes += fetch_w * macro_w * bpe
                dram_bytes += fetch_i * macro_i * bpe
                final_output = statics.output_elements
                spills = max(0.0, float(fetch_o * macro_o - final_output))
                dram_bytes += (final_output + 2.0 * spills) * bpe
                fill_l2 = (macro_w + macro_i) * bpe / dram_bandwidth
                l2_requirement = (macro_w + macro_i + macro_o) * bpe
        steps_above *= product
        num_pes *= spatial
        active_pes *= active
        parent = tile

    compute_cycles = float(t0 * t1 * t2 * t3 * t4 * t5 * steps_above)
    noc_cycles = l2_to_l1_bytes / noc_bandwidth
    dram_cycles = dram_bytes / dram_bandwidth

    # -- buffer capacities (reference: tiles.buffer_requirements) and the
    # -- pipeline fill (reference: CostModel._startup_cycles) --------------
    l1_requirement = (tile_w + tile_i + tile_o) * bpe
    if last:
        fill_l1 = (tile_w + tile_i) * bpe / noc_bandwidth
    else:
        fill_l1 = 0.0
        l2_requirement = l1_requirement
    latency = max(compute_cycles, noc_cycles, dram_cycles) + (fill_l2 + fill_l1)

    # -- energy (reference: evaluate_layer tail) ---------------------------
    macs = statics.macs
    l1_access_bytes = 2.0 * macs * bpe + l2_to_l1_bytes
    l2_access_bytes = l2_to_l1_bytes + dram_bytes
    mac_energy, l1_energy, l2_energy, dram_energy = energy
    total_energy = macs * mac_energy + (
        l1_access_bytes * l1_energy
        + l2_access_bytes * l2_energy
        + dram_bytes * dram_energy
    )
    return make_report(
        layer_name,
        latency,
        compute_cycles,
        noc_cycles,
        dram_cycles,
        macs,
        l2_to_l1_bytes,
        dram_bytes,
        l1_access_bytes,
        total_energy,
        active_pes,
        num_pes,
        l1_requirement,
        l2_requirement,
        count,
    )
