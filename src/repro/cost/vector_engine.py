"""Population-axis vectorized layer evaluation (NumPy structure-of-arrays).

The scalar fast engine (:mod:`repro.cost.engine`) evaluates one
(layer, mapping) pair per call; a GA generation asks for hundreds of them.
This module evaluates a whole batch of such pairs — one *row* per
(population member, unique layer) cache miss — in a single NumPy pass:

* the gene-matrix path
  (:meth:`repro.cost.maestro.CostModel.evaluate_model_matrix`) packs each
  row's genes (spatial sizes, parallel dims, loop orders, clipped tiles)
  into one ``int64`` matrix — one :data:`GENES_PER_LEVEL`-column block per
  hierarchy level — and the engine resolves the per-layer invariants
  through a small statics table, and
* the reuse/latency/energy arithmetic of the scalar engine
  (:func:`repro.cost.engine.evaluate_layer_key`) is re-expressed as
  level-stacked elementwise array operations **in the same operation
  order**.

Hierarchy depth is a parameter, not an assumption: 1-level, 2-level and
3+-level rows all ride the array pipeline (a batch has one depth, read off
the matrix width).

The arrays are short along the dimension axis: every per-dimension
quantity is a ``(rows, 6)`` array, with rows in the hundreds to thousands.
NumPy's axis-1 gathers, reductions and scans on such arrays pay a per-row
overhead that costs more than the arithmetic they do.  So the rule here:
dimension-axis gathers are flat ``take``/``put`` calls on row offsets
(``6 * row + dimension``), and no reduction or scan runs along the 6-wide
axis.  The loop-order prefix products are left-to-right column products,
and the "last iterating loop" scan reads each row's six flags as a 6-bit
mask indexed into a highest-set-bit table.  Every step still performs the
same float64/int64 operations on the same operands in the same order.

Bit-identical results are the contract (enforced by
``tests/cost/test_vector_engine.py``).  The scalar engine does its integer
arithmetic exactly (Python ints) and rounds once when a quantity enters the
float domain; IEEE-754 float64 multiplication/addition of *exactly
representable* operands is also correctly rounded, so the array pipeline
produces the same bits as long as every integer-chain intermediate stays
below 2**53.  Rows where any monitored intermediate reaches that limit —
and rows with oversized layer statics — are flagged and routed through the
scalar engine instead (the *scalar fallback*; see the README's
engine-selection notes, and the per-reason ``fallback_*`` counters this
engine keeps).  On the paper's workloads the flags never fire: traffic and
trip-count intermediates top out around 1e13, two orders of magnitude below
the limit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cost.engine import (
    LayerMappingKey,
    evaluate_layer_key,
    report_values,
)
from repro.workloads.statics import REDUCTION_INDEXES, LayerStatics

#: One row of work: a layer's statics plus one clipped mapping key.
Row = Tuple[LayerStatics, LayerMappingKey]

#: Columns per hierarchy level in the packed gene matrix: spatial size,
#: parallel dim index, six order positions, six tile sizes.
GENES_PER_LEVEL = 14

#: Integer-chain intermediates must stay below 2**53 for float64 products to
#: be exact.  The guard subtracts a relative margin much larger than the
#: worst accumulated rounding error (~1e-15), so a chain whose *exact* value
#: brushes the limit can never sneak past the flag after rounding.
_EXACT_LIMIT = float(2**53) * (1.0 - 1e-9)

#: Below this many rows the NumPy fixed costs outweigh the per-row win and
#: the batch is simply evaluated by the scalar engine.
MIN_VECTOR_ROWS = 8

#: Bit weight of each of the six loop-order positions: a row's boolean flags
#: times these weights is its 6-bit position mask.
_POSITION_BITS = np.array([1, 2, 4, 8, 16, 32], dtype=np.uint8)

#: Highest set bit of every 6-bit position mask, -1 for the empty mask.
_LAST_SET_BIT = np.array(
    [mask.bit_length() - 1 for mask in range(64)], dtype=np.int64
)

#: Dimension-space mask of the reduction dimensions (for output "distinct"
#: factors, mirroring ``spatial_distinct_factor``).
_REDUCTION_MASK = np.array(
    [index in REDUCTION_INDEXES for index in range(6)], dtype=bool
)


def _last_set_position(flags: np.ndarray) -> np.ndarray:
    """Position of each row's last True flag in a ``(n, 6)`` bool array.

    -1 for a row with none.  The row's flags are read as a 6-bit mask and
    looked up in :data:`_LAST_SET_BIT`, so no reduction runs along the
    6-wide axis.
    """
    return _LAST_SET_BIT.take(flags.view(np.uint8) @ _POSITION_BITS)


class VectorEngine:
    """Batched, bit-identical counterpart of the scalar fast engine.

    One instance per :class:`~repro.cost.maestro.CostModel`; it owns a small
    statics table (one row per unique layer shape seen) and fallback
    telemetry: ``rows_vectorized`` / ``rows_fallback`` totals plus the
    per-reason ``fallback_counters`` dict, which makes the scalar-fallback
    rate *diagnosable*.
    """

    def __init__(
        self,
        bytes_per_element: int,
        energy: Tuple[float, float, float, float],
    ):
        self.bytes_per_element = int(bytes_per_element)
        self.energy = energy
        self._bpe_f = float(self.bytes_per_element)
        # Scaling by 1 or a power of two never rounds, so products that are
        # only multiplied by ``bpe`` afterwards need no exactness flag.
        self._bpe_exact = (
            self.bytes_per_element & (self.bytes_per_element - 1)
        ) == 0
        self._statics_index: dict = {}
        self._statics_rows: List[tuple] = []
        self._table: Optional[tuple] = None
        self.rows_vectorized = 0
        self.rows_fallback = 0
        self.fallback_counters = {
            "fallback_statics_overflow": 0,
            "fallback_intermediate_overflow": 0,
            "fallback_small_batch": 0,
        }

    # -- statics table -----------------------------------------------------

    def statics_slot(self, statics: LayerStatics) -> int:
        """Row of ``statics`` in the table (assigned on first sight)."""
        slot = self._statics_index.get(statics)
        if slot is None:
            dims = statics.dims
            # Oversized shapes would overflow the int64/float64 pipeline;
            # their rows always take the scalar path.
            vectorizable = (
                statics.macs < 2**53
                and statics.output_elements < 2**53
                and statics.stride < 2**31
                and all(size < 2**31 for size in dims)
            )
            self._statics_rows.append(
                (
                    dims,
                    statics.stride,
                    statics.is_depthwise,
                    statics.macs,
                    statics.output_elements,
                    tuple(index in statics.weight_indexes for index in range(6)),
                    tuple(index in statics.input_indexes for index in range(6)),
                    tuple(index in statics.output_indexes for index in range(6)),
                    vectorizable,
                )
            )
            slot = len(self._statics_rows) - 1
            self._statics_index[statics] = slot
            self._table = None
        return slot

    def _stacked_table(self) -> tuple:
        """Statics columns as stacked arrays (rebuilt after new shapes)."""
        if self._table is None:
            rows = self._statics_rows
            self._table = (
                np.array([row[0] for row in rows], dtype=np.int64),  # dims
                np.array([row[1] for row in rows], dtype=np.int64),  # stride
                np.array([row[2] for row in rows], dtype=bool),  # depthwise
                np.array([row[3] for row in rows], dtype=np.float64),  # macs
                np.array([row[3] for row in rows], dtype=np.int64),
                np.array([row[4] for row in rows], dtype=np.float64),  # out
                np.array([row[5] for row in rows], dtype=bool),  # W mask
                np.array([row[6] for row in rows], dtype=bool),  # I mask
                np.array([row[7] for row in rows], dtype=bool),  # O mask
            )
        return self._table

    # -- public API --------------------------------------------------------

    def evaluate_packed(
        self,
        rows: Sequence[Row],
        matrix: np.ndarray,
        slots: np.ndarray,
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> List[tuple]:
        """Evaluate uniform-depth rows whose genes are already packed.

        ``matrix`` is the ``(n, 14 * num_levels)`` int64 gene matrix
        (spatial, parallel, order, tiles per level) that
        :meth:`~repro.cost.maestro.CostModel.evaluate_model_matrix`
        assembles with array gathers — hierarchy depth is inferred from its
        width; ``slots`` are the rows' statics-table slots.  ``rows`` is
        consulted only when a row needs the scalar fallback.
        """
        count = len(rows)
        statics_rows = self._statics_rows
        keep: Optional[List[int]] = None
        values: List[Optional[tuple]] = []
        if not all(row[8] for row in statics_rows):
            vectorizable = np.array(
                [row[8] for row in statics_rows], dtype=bool
            )[slots]
            if not vectorizable.all():
                values = [None] * count
                keep = np.flatnonzero(vectorizable).tolist()
                for position in np.flatnonzero(~vectorizable).tolist():
                    statics, key = rows[position]
                    values[position] = self._scalar_values(
                        statics, key, noc_bandwidth, dram_bandwidth,
                        "statics_overflow",
                    )
                matrix = matrix[keep]
                slots = slots[keep]
        remaining = len(keep) if keep is not None else count
        if remaining < MIN_VECTOR_ROWS:
            positions = keep if keep is not None else range(count)
            out = values if keep is not None else [None] * count
            for position in positions:
                statics, key = rows[position]
                out[position] = self._scalar_values(
                    statics, key, noc_bandwidth, dram_bandwidth,
                    "small_batch",
                )
            return out
        tuples = self._finish_matrix(
            rows, keep, matrix, slots, noc_bandwidth, dram_bandwidth
        )
        if keep is None:
            return tuples
        for index, position in enumerate(keep):
            values[position] = tuples[index]
        return values

    def _finish_matrix(
        self,
        rows: Sequence[Row],
        positions: Optional[Sequence[int]],
        matrix: np.ndarray,
        slots: np.ndarray,
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> List[tuple]:
        """Array evaluation + tuple stitching + inexact-row fallback.

        Returns tuples parallel to ``matrix``; ``positions`` maps matrix
        rows back into ``rows`` for the fallback (``None`` = identity).
        """
        float_columns, int_columns, inexact = self._evaluate_matrix(
            matrix, slots, noc_bandwidth, dram_bandwidth
        )
        # One C-level pass per column, then zip stitches the value tuples in
        # report_values order: latency, compute, noc, dram, macs, l2_to_l1,
        # dram_bytes, l1_access, energy, active_pes, num_pes,
        # l1_requirement, l2_requirement.
        f = [column.tolist() for column in float_columns]
        g = [column.tolist() for column in int_columns]
        tuples = list(
            zip(
                f[0], f[1], f[2], f[3], g[0], f[4], f[5], f[6], f[7],
                g[1], g[2], g[3], g[4],
            )
        )
        flagged = 0
        if inexact.any():
            for index in np.flatnonzero(inexact).tolist():
                row = rows[positions[index] if positions is not None else index]
                tuples[index] = self._scalar_values(
                    row[0], row[1], noc_bandwidth, dram_bandwidth,
                    "intermediate_overflow",
                )
                flagged += 1
        self.rows_vectorized += len(tuples) - flagged
        return tuples

    # -- internals ---------------------------------------------------------

    def _scalar_values(
        self,
        statics: LayerStatics,
        key: LayerMappingKey,
        noc_bandwidth: float,
        dram_bandwidth: float,
        reason: str,
    ) -> tuple:
        """One row through the scalar engine (fallback path).

        ``reason`` names the per-reason counter to bump
        (``statics_overflow``, ``intermediate_overflow`` or
        ``small_batch``); ``rows_fallback`` stays the total.
        """
        self.rows_fallback += 1
        self.fallback_counters["fallback_" + reason] += 1
        report = evaluate_layer_key(
            statics,
            key,
            noc_bandwidth,
            dram_bandwidth,
            self.bytes_per_element,
            self.energy,
            "",
            1,
        )
        return report_values(report)

    def _evaluate_matrix(
        self,
        matrix: np.ndarray,
        slots: np.ndarray,
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> Tuple[tuple, tuple, np.ndarray]:
        """The vectorized, depth-general evaluation.

        Mirrors ``engine.evaluate_layer_key`` operation for operation as a
        loop over hierarchy levels (the depth comes from the matrix
        width); see the module docstring for the exactness argument
        behind the ``inexact`` flags and for why the
        6-wide dimension axis is only ever gathered from, never reduced
        along.  Returns the float columns (latency, compute, noc, dram,
        l2_to_l1, dram_bytes, l1_access, energy), the integer columns
        (macs, active_pes, num_pes, l1_requirement, l2_requirement), each
        a tuple of 1-D arrays, and the per-row inexactness flags.
        """
        (
            dims_table, stride_table, dw_table, macs_f_table, macs_i_table,
            out_f_table, w_table, i_table, o_table,
        ) = self._stacked_table()
        dims = dims_table.take(slots, axis=0)
        stride = stride_table.take(slots)
        depthwise = dw_table.take(slots)
        w_mask = w_table.take(slots, axis=0)
        i_mask = i_table.take(slots, axis=0)
        o_mask = o_table.take(slots, axis=0)

        count = len(matrix)
        num_levels = matrix.shape[1] // GENES_PER_LEVEL
        # Every per-dimension array is (count, 6) and C-contiguous, so the
        # element of row r at dimension d sits at flat offset rows[r] + d.
        rows = np.arange(0, 6 * count, 6)
        spatial = []
        par = []
        par_at = []  # flat offsets of each row's parallel dimension
        order_at = []  # flat offsets of each row's dimensions in loop order
        tile = []
        for level in range(num_levels):
            base = level * GENES_PER_LEVEL
            spatial.append(matrix[:, base])
            par.append(matrix[:, base + 1])
            par_at.append(rows + par[level])
            order_at.append(rows[:, None] + matrix[:, base + 2:base + 8])
            tile.append(np.ascontiguousarray(matrix[:, base + 8:base + 14]))

        inexact = np.zeros(count, dtype=bool)

        # -- per-level reuse analysis (engine: base/active/folds/trips) ----
        trips = []
        macros = []
        actives = []
        parent = dims
        for level in range(num_levels):
            at = par_at[level]
            tile_l = tile[level]
            trips_l = -(-parent // tile_l)
            chunks = trips_l.take(at)
            active = np.minimum(spatial[level], chunks)
            trips_l.put(at, -(-chunks // active))
            covered = tile_l.take(at) * active
            macro = tile_l.copy()
            macro.put(at, np.minimum(parent.take(at), covered))
            trips.append(trips_l)
            macros.append(macro)
            actives.append(active)
            parent = tile_l

        # Trip counts in loop order, their running products (column by
        # column, left to right) and whether each loop iterates.
        prefixes = []
        products = []
        iterates = []
        for level in range(num_levels):
            in_order = trips[level].take(order_at[level]).astype(np.float64)
            prefix = np.empty_like(in_order)
            prefix[:, 0] = in_order[:, 0]
            for position in range(1, 6):
                np.multiply(
                    prefix[:, position - 1],
                    in_order[:, position],
                    out=prefix[:, position],
                )
            product = prefix[:, 5]
            inexact |= product >= _EXACT_LIMIT
            prefixes.append(prefix)
            products.append(product)
            iterates.append(in_order > 1.0)

        inner_tile = tile[-1].astype(np.float64)
        inner_volume = inner_tile[:, 0]
        for position in range(1, 6):
            inner_volume = inner_volume * inner_tile[:, position]
        inexact |= inner_volume >= _EXACT_LIMIT
        total_steps = products[0]
        for level in range(1, num_levels):
            total_steps = total_steps * products[level]
            inexact |= total_steps >= _EXACT_LIMIT
        compute_cycles = inner_volume * total_steps

        # -- operand footprints (flag every integer-chain intermediate) ----
        def _footprints(extents):
            k = extents[:, 0].astype(np.float64)
            c = extents[:, 1].astype(np.float64)
            y = extents[:, 2]
            x = extents[:, 3]
            r = extents[:, 4].astype(np.float64)
            s = extents[:, 5].astype(np.float64)
            in_y = ((y - 1) * stride + extents[:, 4]).astype(np.float64)
            in_x = ((x - 1) * stride + extents[:, 5]).astype(np.float64)
            inexact_local = in_y >= _EXACT_LIMIT
            inexact_local |= in_x >= _EXACT_LIMIT
            rs = r * s
            inexact_local |= rs >= _EXACT_LIMIT
            crs = c * rs
            inexact_local |= crs >= _EXACT_LIMIT
            weight = np.where(depthwise, crs, k * crs)
            inexact_local |= weight >= _EXACT_LIMIT
            yx = y.astype(np.float64) * x.astype(np.float64)
            inexact_local |= yx >= _EXACT_LIMIT
            output = np.where(depthwise, c, k) * yx
            inexact_local |= output >= _EXACT_LIMIT
            c_in_y = c * in_y
            inexact_local |= c_in_y >= _EXACT_LIMIT
            inputs = c_in_y * in_x
            inexact_local |= inputs >= _EXACT_LIMIT
            return weight, inputs, output, inexact_local

        macro_w, macro_i, macro_o, flagged = _footprints(macros[0])
        inexact |= flagged

        # -- operand fetch scans (reference: reuse.operand_fetches) --------
        def _fetches(mask, level):
            # The trip prefix up to the innermost loop that iterates and
            # is relevant to the operand; 1.0 when there is none.
            position = _last_set_position(
                mask.take(order_at[level]) & iterates[level]
            )
            gathered = prefixes[level].take(rows + np.maximum(position, 0))
            return np.where(position >= 0, gathered, 1.0)

        bpe = self._bpe_f
        bpe_exact = self._bpe_exact

        # A product that only feeds the float domain from here on needs no
        # exactness flag even when it exceeds 2**53: with both operands
        # exact, IEEE-754 rounds it once — the same single rounding the
        # scalar engine performs when its exact integer enters the float
        # accumulation.  Only scaling by a non-power-of-two ``bpe`` would
        # add a second rounding, hence the ``bpe_exact`` guards.

        # -- off-chip traffic (engine: dram_bytes accumulation) ------------
        out_elements = out_f_table.take(slots)
        term = _fetches(w_mask, 0) * macro_w
        if not bpe_exact:
            inexact |= term >= _EXACT_LIMIT
        dram_bytes = term * bpe
        term = _fetches(i_mask, 0) * macro_i
        if not bpe_exact:
            inexact |= term >= _EXACT_LIMIT
        dram_bytes = dram_bytes + term * bpe
        fetched_out = _fetches(o_mask, 0) * macro_o
        inexact |= fetched_out >= _EXACT_LIMIT  # feeds an exact subtraction
        spills = np.maximum(0.0, fetched_out - out_elements)
        dram_bytes = dram_bytes + (out_elements + 2.0 * spills) * bpe

        # -- NoC traffic (engine: l2_to_l1_bytes accumulation) -------------
        # Each operand's "distinct" factor at depth d multiplies its
        # per-level factors of levels 0..d-1 left to right; ``distinct``
        # carries that running product from one depth to the next.
        operands = ((w_mask, False), (i_mask, False), (o_mask, True))
        actives_f = [active.astype(np.float64) for active in actives]

        def _distinct_factor(mask, is_output, level):
            at = mask.take(par_at[level])
            if is_output:
                at = at | _REDUCTION_MASK.take(par[level])
            return np.where(at, actives_f[level], 1.0)

        distinct = [
            _distinct_factor(mask, is_output, 0) for mask, is_output in operands
        ]
        l2_to_l1_bytes = np.zeros(count)
        inner_w = inner_i = inner_o = None
        steps_above = products[0]
        for level_index in range(1, num_levels):
            tile_w, tile_i, tile_o, flagged = _footprints(tile[level_index])
            inexact |= flagged
            for operand, footprint in enumerate((tile_w, tile_i, tile_o)):
                mask, is_output = operands[operand]
                term = steps_above * _fetches(mask, level_index)
                inexact |= term >= _EXACT_LIMIT
                term = term * footprint
                inexact |= term >= _EXACT_LIMIT
                distinct[operand] = distinct[operand] * _distinct_factor(
                    mask, is_output, level_index
                )
                inexact |= distinct[operand] >= _EXACT_LIMIT
                term = term * distinct[operand]
                if not bpe_exact:
                    inexact |= term >= _EXACT_LIMIT
                l2_to_l1_bytes = l2_to_l1_bytes + term * bpe
            if level_index < num_levels - 1:
                steps_above = steps_above * products[level_index]
                inexact |= steps_above >= _EXACT_LIMIT
            inner_w, inner_i, inner_o = tile_w, tile_i, tile_o

        noc_cycles = l2_to_l1_bytes / noc_bandwidth
        dram_cycles = dram_bytes / dram_bandwidth

        # -- pipeline fill (engine: startup) -------------------------------
        fill = macro_w + macro_i
        if not bpe_exact:
            inexact |= fill >= _EXACT_LIMIT
        startup = fill * bpe / dram_bandwidth
        if num_levels > 1:
            # The scalar engine adds an exact 0.0 here for one-level
            # hierarchies, which is the float identity — skipping the term
            # entirely is bit-identical.
            fill = inner_w + inner_i
            if not bpe_exact:
                inexact |= fill >= _EXACT_LIMIT
            startup = startup + fill * bpe / noc_bandwidth
        latency = (
            np.maximum(np.maximum(compute_cycles, noc_cycles), dram_cycles)
            + startup
        )

        # -- energy (engine: evaluate_layer tail) --------------------------
        macs = macs_f_table.take(slots)
        inexact |= macs >= _EXACT_LIMIT
        mac_energy, l1_energy, l2_energy, dram_energy = self.energy
        l1_access_bytes = 2.0 * macs * bpe + l2_to_l1_bytes
        l2_access_bytes = l2_to_l1_bytes + dram_bytes
        energy_total = macs * mac_energy + (
            (l1_access_bytes * l1_energy + l2_access_bytes * l2_energy)
            + dram_bytes * dram_energy
        )

        # -- minimum buffer capacities (exact integers in the report) ------
        if num_levels == 1:
            # One-level hierarchies size both buffers from the raw inner
            # tile footprint (not the macro), mirroring the scalar engine.
            tile_w, tile_i, tile_o, flagged = _footprints(tile[0])
            inexact |= flagged
            partial = tile_w + tile_i
            inexact |= partial >= _EXACT_LIMIT
            l1_requirement = (partial + tile_o) * bpe
            inexact |= l1_requirement >= _EXACT_LIMIT
            l2_requirement = l1_requirement
        else:
            partial = inner_w + inner_i
            inexact |= partial >= _EXACT_LIMIT
            l1_requirement = (partial + inner_o) * bpe
            inexact |= l1_requirement >= _EXACT_LIMIT
            partial = macro_w + macro_i
            inexact |= partial >= _EXACT_LIMIT
            l2_requirement = (partial + macro_o) * bpe
            inexact |= l2_requirement >= _EXACT_LIMIT
            for level_index in range(1, num_levels - 1):
                mid_w, mid_i, mid_o, flagged = _footprints(macros[level_index])
                inexact |= flagged
                partial = mid_w + mid_i
                inexact |= partial >= _EXACT_LIMIT
                l2_requirement = l2_requirement + (partial + mid_o) * bpe
                inexact |= l2_requirement >= _EXACT_LIMIT

        active_pes = actives[0]
        num_pes = spatial[0]
        for level in range(1, num_levels):
            active_pes = active_pes * actives[level]
            num_pes = num_pes * spatial[level]
        safe = ~inexact
        float_columns = (
            latency, compute_cycles, noc_cycles, dram_cycles,
            l2_to_l1_bytes, dram_bytes, l1_access_bytes, energy_total,
        )
        int_columns = (
            macs_i_table.take(slots),
            active_pes,
            num_pes,
            np.where(safe, l1_requirement, 0.0).astype(np.int64),
            np.where(safe, l2_requirement, 0.0).astype(np.int64),
        )
        return float_columns, int_columns, inexact
