"""Fitness evaluation: decode, evaluate, check constraints, score.

This is the paper's Evaluation Block (Fig. 3(a)): an encoded individual is
decoded into an accelerator design point, scored by the HW performance
evaluator, and its fitness is replaced with a (graded) negative penalty when
the design violates the budget, so that optimization algorithms of any kind
can be plugged into the Optimization Block unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.area import AreaBreakdown, AreaModel
from repro.arch.energy import EnergyModel
from repro.arch.hardware import HardwareConfig
from repro.arch.platform import Platform
from repro.cost.backend import BACKENDS, create_backend
from repro.cost.cache import CacheStats, LRUCache
from repro.cost.maestro import DEFAULT_LAYER_CACHE_SIZE
from repro.cost.performance import ModelPerformance
from repro.encoding.genome import Genome, GenomeSpace
from repro.encoding.genome_matrix import (
    LEVEL_WIDTH,
    SPATIAL_COL,
    GenomeMatrix,
    row_to_genome,
)
from repro.framework.constraints import ConstraintChecker
from repro.framework.designpoint import AcceleratorDesign, LazyRowMappingDesign
from repro.framework.objective import Objective, ObjectiveSet, objective_value
from repro.mapping.mapping import Mapping
from repro.workloads.layer import Layer
from repro.workloads.model import Model

#: Scale of the penalty assigned to invalid design points.  It dominates any
#: achievable objective value so that every valid point outranks every
#: invalid one, while the severity grading still gives the search a slope
#: back towards the feasible region.
INVALID_FITNESS_SCALE = 1e18

#: Bound of the whole-design memo (one entry per distinct raw mapping).
DEFAULT_DESIGN_CACHE_SIZE = 2048

#: Accepted evaluation-engine selectors, fastest first.  The single source
#: of truth: job specs, experiment settings and the CLIs import this.
ENGINES = ("vector", "fast", "reference")

#: Clock default :meth:`DesignEvaluator._score` gives derived hardware,
#: which it builds without ``HardwareConfig.__init__`` — taken from the
#: dataclass itself so a changed default cannot be missed.
_DEFAULT_FREQUENCY_MHZ = HardwareConfig.__dataclass_fields__[
    "frequency_mhz"
].default

def _with_genome(result: "EvaluationResult", genome: Genome) -> "EvaluationResult":
    """A copy of ``result`` carrying ``genome``, without the __init__ cost.

    Equivalent to ``dataclasses.replace(result, genome=genome)``; the frozen
    dataclass stores fields in the instance dict, so a bulk dict copy
    suffices and runs several times faster on this per-evaluation path.
    """
    wrapped = object.__new__(EvaluationResult)
    wrapped.__dict__.update(result.__dict__)
    wrapped.__dict__["genome"] = genome
    return wrapped


@dataclass(frozen=True)
class EvaluationResult:
    """Everything the framework knows about one evaluated design point."""

    fitness: float
    valid: bool
    objective: Objective
    objective_value: float
    design: AcceleratorDesign
    violations: tuple
    genome: Optional[Genome] = None
    #: Per-objective values (lower is better each) when the evaluator was
    #: configured with an :class:`~repro.framework.objective.ObjectiveSet`.
    #: Computed from the same cost-model pass as the scalar objective, so
    #: requesting a vector never costs a second evaluation.
    objective_vector: Optional[Tuple[float, ...]] = None

    @property
    def latency(self) -> float:
        """Total model latency of the design point (cycles)."""
        return self.design.latency

    @property
    def energy(self) -> float:
        """Total model energy of the design point."""
        return self.design.energy

    @property
    def latency_area_product(self) -> float:
        """Latency times area of the design point."""
        return self.design.latency_area_product


class RowGenomeResult(EvaluationResult):
    """A result whose genome materializes from its gene-row fingerprint.

    The gene-matrix path scores whole populations without ever building
    :class:`~repro.encoding.genome.Genome` objects; the few results whose
    ``genome`` is actually read (serialization, analysis) rebuild it from
    the stored row bytes on first access.  The property is a data
    descriptor, so it takes precedence over the inherited dataclass field
    in the instance dict.
    """

    @property
    def genome(self) -> Genome:
        cached = self.__dict__.get("_genome_object")
        if cached is None:
            from repro.encoding.genome_matrix import LEVEL_WIDTH

            row = np.frombuffer(self.__dict__["_genome_row"], dtype=np.int64)
            cached = row_to_genome(row, len(row) // LEVEL_WIDTH)
            self.__dict__["_genome_object"] = cached
        return cached


def _with_row_genome(
    result: EvaluationResult, fingerprint: bytes
) -> EvaluationResult:
    """A copy of ``result`` whose genome rebuilds lazily from its gene row."""
    wrapped = object.__new__(RowGenomeResult)
    wrapped.__dict__.update(result.__dict__)
    wrapped.__dict__["_genome_row"] = fingerprint
    return wrapped


class DesignEvaluator:
    """Decodes and scores design points for one model on one platform.

    Parameters
    ----------
    model:
        Target DNN model.
    platform:
        Area budget and bandwidth assumptions (edge / cloud).
    objective:
        The metric to minimize.
    fixed_hardware:
        When given, the Fixed-HW use case is enabled: the PE array and
        buffer capacities are pinned and only the mapping is evaluated
        (mappings that do not fit the buffers are invalid).
    area_model / energy_model / bytes_per_element:
        Technology models; defaults are the calibrated models described in
        DESIGN.md.
    buffer_allocation:
        ``"exact"`` (default, the paper's strategy) allocates exactly the
        buffer capacity the decoded mapping needs; ``"fill"`` instead gives
        the L2 all of the area budget left over after PEs and L1s, which is
        the naive alternative used by the buffer-allocation ablation.
    use_cache:
        When True (default) memoize whole-design evaluations, and the
        per-layer evaluations of the scalar engines and single
        evaluations, behind bounded LRU caches (a vector-engine
        population prices each unique layer row once per call instead).
        Results are bit-identical either way; the flag exists for
        benchmarking and debugging (``--no-cache``).
    engine:
        Evaluation-engine selector.  ``"vector"`` (default) batches whole
        populations through the NumPy structure-of-arrays engine
        (:mod:`repro.cost.vector_engine`) and falls back to the scalar fast
        engine for single evaluations; ``"fast"`` is the scalar tuple-based
        engine; ``"reference"`` is the seed implementation kept for parity
        tests and baseline benchmarks.  All three are bit-identical.
    objectives:
        Optional :class:`~repro.framework.objective.ObjectiveSet`.  When
        given, every :class:`EvaluationResult` additionally carries the
        per-objective value vector, computed from the same cost-model pass
        as the scalar objective (the scalar path is unchanged either way).
    backend:
        Cost-backend selector (:mod:`repro.cost.backend`).  ``"analytic"``
        (default) is the MAESTRO-style order-aware engine this repo
        reproduces; ``"zigzag"`` is the independently coded memory-centric
        model used as a cross-backend correctness oracle
        (``repro crosscheck``).  Non-analytic backends price designs
        through the per-genome path: the vector/matrix fast paths and the
        ``engine`` selector are analytic-backend concepts.
    cache_dir:
        Optional directory of a persistent cross-run layer cache
        (:class:`~repro.cost.persist.PersistentLayerCache`).  Layer
        lookups that the in-memory caches do not resolve (the scalar
        path's LRU misses, each unique row of a vector-engine batch)
        probe this shared on-disk L2 before the engine, and freshly
        priced rows are written back, so identical queries across sweep
        jobs, concurrent processes and successive runs become lookups.
        Results are bit-identical with or without it (served rows are
        pure functions of their content-addressed keys); ignored when
        ``use_cache`` is False or on the reference engine.
    """

    #: Accepted ``engine`` values (the module-level constant).
    ENGINES = ENGINES

    #: Accepted ``backend`` values (from :mod:`repro.cost.backend`).
    BACKENDS = BACKENDS

    def __init__(
        self,
        model: Model,
        platform: Platform,
        objective: Objective = Objective.LATENCY,
        fixed_hardware: Optional[HardwareConfig] = None,
        area_model: Optional[AreaModel] = None,
        energy_model: Optional[EnergyModel] = None,
        bytes_per_element: int = 1,
        buffer_allocation: str = "exact",
        use_cache: bool = True,
        engine: str = "vector",
        objectives: Optional[ObjectiveSet] = None,
        backend: str = "analytic",
        cache_dir: Optional[str] = None,
    ):
        if buffer_allocation not in ("exact", "fill"):
            raise ValueError(
                f"buffer_allocation must be 'exact' or 'fill', got {buffer_allocation!r}"
            )
        if bytes_per_element < 1:
            raise ValueError("bytes_per_element must be >= 1")
        if engine not in self.ENGINES:
            raise ValueError(
                f"engine must be one of {self.ENGINES}, got {engine!r}"
            )
        if backend not in self.BACKENDS:
            raise ValueError(
                f"backend must be one of {self.BACKENDS}, got {backend!r}"
            )
        self.engine = engine
        self.backend = backend
        self.model = model
        self.platform = platform
        self.objective = objective
        self.objectives = objectives
        self.fixed_hardware = fixed_hardware
        self.buffer_allocation = buffer_allocation
        self.area_model = area_model if area_model is not None else AreaModel()
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.bytes_per_element = bytes_per_element
        self.use_cache = use_cache
        self.cost_model = create_backend(
            backend,
            energy_model=self.energy_model,
            bytes_per_element=bytes_per_element,
            cache_size=DEFAULT_LAYER_CACHE_SIZE if use_cache else 0,
            engine="reference" if engine == "reference" else "fast",
        )
        self.cache_dir = cache_dir
        if cache_dir is not None and use_cache and engine != "reference":
            from repro.cost.persist import PersistentLayerCache

            self.cost_model.attach_persistent_cache(
                PersistentLayerCache(cache_dir)
            )
        self.constraint_checker = ConstraintChecker(
            area_budget_um2=platform.area_budget_um2,
            fixed_hardware=fixed_hardware,
        )
        self._design_cache = LRUCache(
            DEFAULT_DESIGN_CACHE_SIZE if use_cache and engine != "reference" else 0
        )
        #: Optional :class:`~repro.experiments.faults.FaultPlan`, read by
        #: the search tracker at generation boundaries so chaos tests can
        #: preempt or stall a search deterministically.  ``None`` in
        #: production.
        self.fault_plan = None

    # -- public API --------------------------------------------------------

    def genome_space(self, num_levels: int = 2) -> GenomeSpace:
        """Build the genome space matching this evaluator's configuration."""
        fixed_pe_array = (
            self.fixed_hardware.pe_array if self.fixed_hardware is not None else None
        )
        max_pes = self.area_model.max_pes_within(self.platform.area_budget_um2)
        if fixed_pe_array is not None and len(fixed_pe_array) != num_levels:
            raise ValueError(
                f"fixed hardware has {len(fixed_pe_array)} levels, requested {num_levels}"
            )
        return GenomeSpace.from_model(
            self.model,
            max_pes=max_pes,
            num_levels=num_levels,
            fixed_pe_array=fixed_pe_array,
        )

    def evaluate_genome(self, genome: Genome) -> EvaluationResult:
        """Decode and score an encoded individual.

        Whole evaluations are memoized on the mapping's canonical key:
        identical raw mappings (elites copied between generations, converged
        populations) skip decoding and scoring entirely.
        """
        key = genome.cache_key()
        result = self._design_cache.get(key)
        if result is None:
            result = self.evaluate_mapping(genome.to_mapping())
            self._design_cache.put(key, result)
        return _with_genome(result, genome)

    # -- gene-matrix population path ---------------------------------------

    def evaluate_matrix(self, matrix: GenomeMatrix) -> List[EvaluationResult]:
        """Score a whole *repaired* gene-matrix population in one call.

        This is the population data path the matrix-native search loops
        feed: rows must already be repaired (the tracker's
        :meth:`~repro.framework.search.SearchTracker.evaluate_matrix` does
        this with one vectorized pass).  Results are bit-identical to
        ``[self.evaluate_genome(g) for g in matrix.to_genomes()]`` — the
        row bytes *are* the flattened design cache key — but no per-member
        ``Genome`` or ``Mapping`` object is ever constructed: design-level
        reuse works on raw row fingerprints, misses feed the cost model's
        packed matrix entry directly, and genomes on the returned results
        materialize lazily.

        A lone design, the scalar engines and non-analytic backends take the
        per-design :meth:`evaluate_genome` path instead, whose layer LRU
        answers most of a sequential search's layer lookups; under the
        analytic backend values are bit-identical, so matrix-native search
        loops stay exact under every engine selector.  Hierarchy depth is
        no gate: the vector path prices 1-, 2- and 3+-level matrices
        natively.
        """
        if (
            len(matrix) < 2
            or self.engine != "vector"
            or self.backend != "analytic"
        ):
            return [self.evaluate_genome(g) for g in matrix.to_genomes()]
        return self._evaluate_matrix_vector(matrix)

    def _evaluate_matrix_vector(
        self, matrix: GenomeMatrix
    ) -> List[EvaluationResult]:
        """Vector-engine path of :meth:`evaluate_matrix`."""
        data = matrix.data
        count = len(data)
        orders = data.reshape(count, matrix.num_levels, 14)[:, :, 2:8]
        invalid = (np.sort(orders, axis=2) != np.arange(6, dtype=np.int64)).any(
            axis=2
        )
        if invalid.any():
            member, level = np.argwhere(invalid)[0].tolist()
            raise ValueError(
                f"order of level {level} must be a permutation of all dims, "
                f"got {orders[member, level].tolist()}"
            )
        raw = data.tobytes()
        step = data.shape[1] * 8
        fingerprints = [raw[i * step : i * step + step] for i in range(count)]
        cache = self._design_cache
        results: List[Optional[EvaluationResult]] = [None] * count
        slots: List[Optional[int]] = [None] * count
        pending: dict = {}
        miss_rows: List[int] = []
        for position, fingerprint in enumerate(fingerprints):
            slot = pending.get(fingerprint)
            if slot is not None:
                if cache.maxsize > 0:
                    cache.hits += 1
                slots[position] = slot
                continue
            known = cache.get(fingerprint)
            if known is not None:
                results[position] = known
                continue
            pending[fingerprint] = len(miss_rows)
            slots[position] = len(miss_rows)
            miss_rows.append(position)

        if miss_rows:
            miss_matrix = data[np.array(miss_rows, dtype=np.int64)]
            performances = self.cost_model.evaluate_model_matrix(
                self.model,
                miss_matrix,
                noc_bandwidth=self.platform.noc_bandwidth,
                dram_bandwidth=self.platform.dram_bandwidth,
            )
            spatial = miss_matrix[:, SPATIAL_COL::LEVEL_WIDTH].tolist()
            miss_results = self._score(
                performances,
                [fingerprints[position] for position in miss_rows],
                list(map(tuple, spatial)),
            )
            for result, position in zip(miss_results, miss_rows):
                cache.put(fingerprints[position], result)
            for position, slot in enumerate(slots):
                if slot is not None and results[position] is None:
                    results[position] = miss_results[slot]
        return [
            _with_row_genome(results[position], fingerprints[position])
            for position in range(count)
        ]

    @property
    def cache_stats(self) -> CacheStats:
        """Combined hit/miss counters of the design and layer caches."""
        return self._design_cache.stats().combined(self.cost_model.cache_stats)

    @property
    def design_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the whole-design memo."""
        return self._design_cache.stats()

    @property
    def layer_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the per-layer report cache."""
        return self.cost_model.cache_stats

    @property
    def persistent_cache(self):
        """The cost model's persistent L2 tier, or ``None``."""
        return self.cost_model.persistent_cache

    def cache_clear(self) -> None:
        """Drop all memoized evaluations and counters."""
        self._design_cache.clear()
        self.cost_model.cache_clear()

    def close(self) -> None:
        """Flush and close the persistent cache tier, if one is attached.

        The close is not terminal: the next lookup reopens the store.
        """
        tier = self.cost_model.persistent_cache
        if tier is not None:
            tier.close()

    def __enter__(self) -> "DesignEvaluator":
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self.close()

    def evaluate_mapping(
        self,
        mapping: Mapping | Callable[[Layer], Mapping],
        pe_array: Optional[tuple] = None,
    ) -> EvaluationResult:
        """Score a mapping (or per-layer mapping provider) directly.

        Used by the Fixed-Mapping use case and the HW-opt grid-search
        baseline, where mappings come from dataflow templates rather than
        from the genome encoding.  ``pe_array`` must be given when
        ``mapping`` is a callable (the spatial sizes cannot be read off it).
        """
        if isinstance(mapping, Mapping):
            design_mapping = mapping
            if pe_array is None:
                pe_array = mapping.pe_array
        else:
            if pe_array is None:
                raise ValueError("pe_array is required for per-layer mapping providers")
            design_mapping = None
        pe_array = tuple(int(size) for size in pe_array)
        if not pe_array or min(pe_array) < 1:
            raise ValueError(f"pe_array entries must be >= 1, got {pe_array}")

        performance = self.cost_model.evaluate_model(
            self.model,
            mapping,
            noc_bandwidth=self.platform.noc_bandwidth,
            dram_bandwidth=self.platform.dram_bandwidth,
        )
        if design_mapping is None:
            design_mapping = mapping(self.model.unique_layers()[0])
        return self._score((performance,), (design_mapping,), (pe_array,))[0]

    # -- internals ---------------------------------------------------------

    def _score(
        self,
        performances: Sequence[ModelPerformance],
        mappings: Sequence[Mapping | bytes],
        pe_arrays: Sequence[Tuple[int, ...]],
    ) -> List[EvaluationResult]:
        """Turn priced designs into scored design points.

        ``mappings[i]`` is design ``i``'s :class:`Mapping`, kept eagerly, or
        its gene-row fingerprint, from which the mapping rebuilds on first
        access (the gene-matrix path, where almost no mapping is ever
        inspected).  ``pe_arrays[i]`` holds plain ints, each at least 1.
        The buffers follow the allocation strategy: the fixed hardware's,
        exactly the mapping's requirement (``"exact"``), or that with the
        L2 grown into the area left over after PEs and L1s (``"fill"``).

        The constraint checker runs only for a design over the area budget
        or a fixed buffer capacity; every other design is valid with
        severity 1.  Hardware, areas and results are built without the
        dataclass ``__init__``, which matters when a generation scores
        hundreds of designs; the arithmetic is the checker's and the area
        model's, in the same order on the same scalars.
        """
        area_model = self.area_model
        pe_area_um2 = area_model.pe_area_um2
        l1_per_byte = area_model.l1_area_per_byte_um2
        l2_per_byte = area_model.l2_area_per_byte_um2
        budget = self.platform.area_budget_um2
        noc_bandwidth = self.platform.noc_bandwidth
        dram_bandwidth = self.platform.dram_bandwidth
        bytes_per_element = self.bytes_per_element
        fill = self.buffer_allocation == "fill"
        objective = self.objective
        objectives = self.objectives
        fixed = self.fixed_hardware
        if fixed is not None:
            hardware = fixed
            area = area_model.breakdown(fixed)
            total = area.total
            over_area = total / budget > 1.0
        results: List[EvaluationResult] = []
        for performance, mapping, pe_array in zip(performances, mappings, pe_arrays):
            l1_need = performance.l1_requirement_bytes
            l2_need = performance.l2_requirement_bytes
            if fixed is None:
                l1_size = l1_need if l1_need > 1 else 1
                l2_size = l2_need if l2_need > 1 else 1
                num_pes = 1
                for extent in pe_array:
                    num_pes *= extent
                pe_area = num_pes * pe_area_um2
                l1_area = num_pes * l1_size * l1_per_byte
                if fill:
                    leftover = budget - (pe_area + l1_area)
                    if leftover > 0:
                        l2_size = max(l2_size, int(leftover // l2_per_byte))
                l2_area = l2_size * l2_per_byte
                hardware = object.__new__(HardwareConfig)
                hardware.__dict__.update(
                    pe_array=pe_array,
                    l1_size=l1_size,
                    l2_size=l2_size,
                    noc_bandwidth=noc_bandwidth,
                    dram_bandwidth=dram_bandwidth,
                    bytes_per_element=bytes_per_element,
                    frequency_mhz=_DEFAULT_FREQUENCY_MHZ,
                )
                area = object.__new__(AreaBreakdown)
                area.__dict__.update(
                    pe_area=pe_area, l1_area=l1_area, l2_area=l2_area
                )
                total = pe_area + (l1_area + l2_area)
                over = total / budget > 1.0
            else:
                over = (
                    over_area
                    or l1_need > fixed.l1_size
                    or l2_need > fixed.l2_size
                )
            if objective is Objective.LATENCY:
                value = performance.latency
            elif objective is Objective.LATENCY_AREA_PRODUCT:
                value = performance.latency * total
            else:
                value = objective_value(objective, performance, area)
            if over:
                check = self.constraint_checker.check(
                    hardware, area, l1_need, l2_need
                )
                fitness = -INVALID_FITNESS_SCALE * max(1.0, check.severity)
                valid = False
                violations = check.violations
            else:
                fitness = -value
                valid = True
                violations = ()
            if type(mapping) is bytes:
                design = LazyRowMappingDesign.build(
                    hardware, mapping, performance, area
                )
            else:
                design = AcceleratorDesign(
                    hardware=hardware,
                    mapping=mapping,
                    performance=performance,
                    area=area,
                )
            result = object.__new__(EvaluationResult)
            result.__dict__.update(
                fitness=fitness,
                valid=valid,
                objective=objective,
                objective_value=value,
                design=design,
                violations=violations,
                genome=None,
                objective_vector=(
                    objectives.values(performance, area)
                    if objectives is not None
                    else None
                ),
            )
            results.append(result)
        return results
