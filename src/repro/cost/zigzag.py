"""ZigZag-style memory-centric cost backend.

A second, independently coded per-layer cost model behind the shared
layer-report caches of :class:`repro.cost.maestro.CostModel` (see
:mod:`repro.cost.backend`).  It is modeled on the temporal-mapping engine
MATCH plugs in per target (ZigZag): data movement is counted
*memory-centrically* — each operand's traffic at a memory level is its
tile footprint times the product of the operand's relevant temporal loop
trips at and above that level — instead of the analytic engine's
order-aware innermost-scan.

Documented modeling differences vs :mod:`repro.cost.engine`:

* **Refresh counting.**  ZigZag-style refreshes assume maximal per-operand
  stationarity: only loops over an operand's *relevant* dimensions force a
  re-fetch, regardless of where irrelevant loops sit in the loop order.
  The analytic engine scans the concrete loop order and charges re-fetches
  for everything below the innermost relevant iterating loop, so its
  traffic is always >= the ZigZag count for the same mapping.
* **No pipeline-fill term.**  Latency is the plain max of the compute, NoC
  and DRAM phases; the analytic engine adds a startup (buffer fill) term.
* **Shared modeling ground.**  Operand footprint geometry, buffer sizing,
  PE counting and the energy coefficient structure are identical, so
  constraint checking, area and the search spaces behave the same across
  backends.

Because of the first two differences, agreement with the analytic backend
is *bounded*, not bit-exact: latency and energy deltas stay within the
tolerance gated by ``repro crosscheck``, while area-side quantities
(buffer requirements, PE counts) match exactly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.cost.engine import LayerMappingKey, make_report
from repro.cost.maestro import CostModel
from repro.cost.performance import LayerPerformance
from repro.workloads.statics import REDUCTION_INDEXES, LayerStatics


def _operand_footprints(
    statics: LayerStatics, extents: Sequence[int]
) -> Tuple[int, int, int]:
    """Weight / input / output element counts of one tile (shared geometry)."""
    k, c, y, x, r, s = extents
    in_y = (y - 1) * statics.stride + r
    in_x = (x - 1) * statics.stride + s
    weight = c * r * s if statics.is_depthwise else k * c * r * s
    output = (c if statics.is_depthwise else k) * y * x
    inputs = c * in_y * in_x
    return weight, inputs, output


def _relevant_trips(trips: Sequence[int], indexes) -> int:
    """Refresh count: product of the operand-relevant loop trip counts."""
    product = 1
    for dim in indexes:
        product *= trips[dim]
    return product


def evaluate_layer_zigzag(
    statics: LayerStatics,
    key: LayerMappingKey,
    noc_bandwidth: float,
    dram_bandwidth: float,
    bpe: int,
    energy: Tuple[float, float, float, float],
    layer_name: str,
    count: int,
) -> LayerPerformance:
    """One (layer, clipped mapping key) pair through the ZigZag-style model."""
    rel_w = statics.weight_indexes
    rel_i = statics.input_indexes
    rel_o = statics.output_indexes

    # Per-level loop analysis: ceil-div trip counts with spatial folding at
    # the parallel dimension, plus the macro extent covered per step.
    parent = statics.dims
    num_pes = 1
    active_pes = 1
    total_steps = 1
    # Per level: (tile, macro, trips, active, parallel_index)
    levels: List[tuple] = []
    for (spatial, p_idx, _order), tile in key:
        trips = [-(-parent[dim] // tile[dim]) for dim in range(6)]
        chunks = trips[p_idx]
        active = spatial if spatial < chunks else chunks
        trips[p_idx] = -(-chunks // active)
        covered = tile[p_idx] * active
        macro = list(tile)
        macro[p_idx] = min(parent[p_idx], covered)
        level_total = 1
        for trip in trips:
            level_total *= trip
        levels.append((tile, tuple(macro), tuple(trips), active, p_idx))
        num_pes *= spatial
        active_pes *= active
        total_steps *= level_total
        parent = tile

    num_levels = len(levels)
    inner_volume = 1
    for size in levels[-1][0]:
        inner_volume *= size
    compute_cycles = float(inner_volume * total_steps)

    # Off-chip traffic: outer-level macro tiles, refreshed once per
    # relevant-loop iteration of the outermost level.
    trips0 = levels[0][2]
    macro_w, macro_i, macro_o = _operand_footprints(statics, levels[0][1])
    dram_bytes = float(macro_w * _relevant_trips(trips0, rel_w) * bpe)
    dram_bytes += macro_i * _relevant_trips(trips0, rel_i) * bpe
    out_moves = macro_o * _relevant_trips(trips0, rel_o)
    spills = max(0.0, float(out_moves - statics.output_elements))
    dram_bytes += (statics.output_elements + 2.0 * spills) * bpe

    # On-chip traffic: each inner level's tiles are refreshed once per
    # relevant-loop iteration at or above that level, multicast to the
    # spatially distinct consumers (relevant parallel dims; reduction dims
    # force distinct output accumulators).
    l2_to_l1_bytes = 0.0
    for level_index in range(1, num_levels):
        tile_w, tile_i, tile_o = _operand_footprints(
            statics, levels[level_index][0]
        )
        for footprint, relevant, is_output in (
            (tile_w, rel_w, False),
            (tile_i, rel_i, False),
            (tile_o, rel_o, True),
        ):
            refreshes = 1
            distinct = 1
            for outer_index in range(level_index + 1):
                _, _, trips_m, active_m, p_m = levels[outer_index]
                refreshes *= _relevant_trips(trips_m, relevant)
                if p_m in relevant or (
                    is_output and p_m in REDUCTION_INDEXES
                ):
                    distinct *= active_m
            l2_to_l1_bytes += refreshes * footprint * distinct * bpe

    noc_cycles = l2_to_l1_bytes / noc_bandwidth
    dram_cycles = dram_bytes / dram_bandwidth
    # Phase overlap with no fill term (modeling difference vs analytic).
    latency = max(compute_cycles, noc_cycles, dram_cycles)

    macs = statics.macs
    l1_access_bytes = 2.0 * macs * bpe + l2_to_l1_bytes
    l2_access_bytes = l2_to_l1_bytes + dram_bytes
    mac_energy, l1_energy, l2_energy, dram_energy = energy
    total_energy = macs * mac_energy + (
        l1_access_bytes * l1_energy
        + l2_access_bytes * l2_energy
        + dram_bytes * dram_energy
    )

    # Buffer sizing is shared modeling ground with the analytic engine so
    # constraint checking and area agree exactly across backends.
    if num_levels == 1:
        tile_w, tile_i, tile_o = _operand_footprints(statics, levels[0][0])
        l1_requirement = (tile_w + tile_i + tile_o) * bpe
        l2_requirement = l1_requirement
    else:
        inner_w, inner_i, inner_o = _operand_footprints(
            statics, levels[-1][0]
        )
        l1_requirement = (inner_w + inner_i + inner_o) * bpe
        l2_requirement = (macro_w + macro_i + macro_o) * bpe
        for level_index in range(1, num_levels - 1):
            mid_w, mid_i, mid_o = _operand_footprints(
                statics, levels[level_index][1]
            )
            l2_requirement += (mid_w + mid_i + mid_o) * bpe

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


class ZigZagCostModel(CostModel):
    """Cost model pricing layers with the ZigZag-style engine.

    Only the per-layer pricer and the persistent-tier namespace differ
    from the analytic backend; the layer-report LRU, its L2 tier and the
    stats are inherited, so the evaluator and sweep runner are
    backend-blind.  This backend has a single scalar
    implementation: ``"fast"`` is its only engine, and the evaluator prices
    populations with one :meth:`evaluate_model` call per design (the
    gene-matrix path is the analytic vector engine's).
    """

    backend_name = "zigzag"
    price_layer = staticmethod(evaluate_layer_zigzag)
    engines = ("fast",)

    def evaluate_model_matrix(self, *args, **kwargs):
        """The gene-matrix path is analytic-backend only."""
        raise ValueError(
            "the gene-matrix path requires the analytic backend; "
            "the zigzag backend prices designs through evaluate_model"
        )
