"""JSON (de)serialization of design points and search results.

Design-space exploration only pays off if the winning design can leave the
search process: these helpers turn hardware configurations, mappings,
genomes and full accelerator designs into plain JSON-compatible dictionaries
(and back, for the searchable objects), so results can be stored, diffed and
shipped to RTL or compiler toolchains.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.arch.area import AreaBreakdown
from repro.arch.hardware import HardwareConfig
from repro.cost.performance import LayerPerformance, ModelPerformance
from repro.encoding.genome import Genome, LevelGenes
from repro.framework.designpoint import AcceleratorDesign
from repro.framework.evaluator import EvaluationResult
from repro.framework.objective import Objective
from repro.framework.pareto import ParetoResult
from repro.framework.search import SearchResult
from repro.mapping.directives import LevelMapping
from repro.mapping.mapping import Mapping
from repro.workloads.dims import DIMS

PathLike = Union[str, Path]


# -- hardware ----------------------------------------------------------------


def hardware_to_dict(hardware: HardwareConfig) -> Dict[str, Any]:
    """Serialize a hardware configuration."""
    return {
        "pe_array": list(hardware.pe_array),
        "l1_size": hardware.l1_size,
        "l2_size": hardware.l2_size,
        "noc_bandwidth": hardware.noc_bandwidth,
        "dram_bandwidth": hardware.dram_bandwidth,
        "bytes_per_element": hardware.bytes_per_element,
        "frequency_mhz": hardware.frequency_mhz,
    }


def hardware_from_dict(data: Dict[str, Any]) -> HardwareConfig:
    """Rebuild a hardware configuration from :func:`hardware_to_dict` output."""
    return HardwareConfig(
        pe_array=tuple(data["pe_array"]),
        l1_size=int(data["l1_size"]),
        l2_size=int(data["l2_size"]),
        noc_bandwidth=float(data["noc_bandwidth"]),
        dram_bandwidth=float(data["dram_bandwidth"]),
        bytes_per_element=int(data.get("bytes_per_element", 1)),
        frequency_mhz=float(data.get("frequency_mhz", 1000.0)),
    )


# -- mapping and genome --------------------------------------------------------


def mapping_to_dict(mapping: Mapping) -> Dict[str, Any]:
    """Serialize a mapping (same layout as ``Mapping.as_dict``)."""
    return mapping.as_dict()


def mapping_from_dict(data: Dict[str, Any]) -> Mapping:
    """Rebuild a mapping from :func:`mapping_to_dict` output."""
    levels = []
    for level in data["levels"]:
        levels.append(
            LevelMapping(
                spatial_size=int(level["spatial_size"]),
                parallel_dim=str(level["parallel_dim"]),
                order=tuple(level["order"]),
                tiles={dim: int(level["tiles"][dim]) for dim in DIMS},
            )
        )
    return Mapping(levels=tuple(levels))


def genome_to_dict(genome: Genome) -> Dict[str, Any]:
    """Serialize a genome."""
    return {
        "levels": [
            {
                "spatial_size": level.spatial_size,
                "parallel_dim": level.parallel_dim,
                "order": list(level.order),
                "tiles": {dim: level.tiles[dim] for dim in DIMS},
            }
            for level in genome.levels
        ]
    }


def genome_from_dict(data: Dict[str, Any]) -> Genome:
    """Rebuild a genome from :func:`genome_to_dict` output."""
    levels = []
    for level in data["levels"]:
        levels.append(
            LevelGenes(
                spatial_size=int(level["spatial_size"]),
                parallel_dim=str(level["parallel_dim"]),
                order=list(level["order"]),
                tiles={dim: int(level["tiles"][dim]) for dim in DIMS},
            )
        )
    return Genome(levels=levels)


# -- designs and results -------------------------------------------------------


def layer_performance_to_dict(layer: LayerPerformance) -> Dict[str, Any]:
    """Serialize one layer's cost-model report (lossless)."""
    return {
        "name": layer.layer_name,
        "count": layer.count,
        "latency_cycles": layer.latency,
        "compute_cycles": layer.compute_cycles,
        "noc_cycles": layer.noc_cycles,
        "dram_cycles": layer.dram_cycles,
        "macs": layer.macs,
        "l2_to_l1_bytes": layer.l2_to_l1_bytes,
        "dram_bytes": layer.dram_bytes,
        "l1_access_bytes": layer.l1_access_bytes,
        "energy": layer.energy,
        "active_pes": layer.active_pes,
        "num_pes": layer.num_pes,
        "l1_requirement_bytes": layer.l1_requirement_bytes,
        "l2_requirement_bytes": layer.l2_requirement_bytes,
        # Derived quantities, kept for human consumption of the JSON.
        "utilization": layer.utilization,
        "bottleneck": layer.bottleneck,
    }


def layer_performance_from_dict(data: Dict[str, Any]) -> LayerPerformance:
    """Rebuild one layer report from :func:`layer_performance_to_dict` output."""
    return LayerPerformance(
        layer_name=str(data["name"]),
        latency=float(data["latency_cycles"]),
        compute_cycles=float(data["compute_cycles"]),
        noc_cycles=float(data["noc_cycles"]),
        dram_cycles=float(data["dram_cycles"]),
        macs=int(data["macs"]),
        l2_to_l1_bytes=float(data["l2_to_l1_bytes"]),
        dram_bytes=float(data["dram_bytes"]),
        l1_access_bytes=float(data["l1_access_bytes"]),
        energy=float(data["energy"]),
        active_pes=int(data["active_pes"]),
        num_pes=int(data["num_pes"]),
        l1_requirement_bytes=int(data["l1_requirement_bytes"]),
        l2_requirement_bytes=int(data["l2_requirement_bytes"]),
        count=int(data.get("count", 1)),
    )


def design_to_dict(design: AcceleratorDesign) -> Dict[str, Any]:
    """Serialize a decoded accelerator design with its headline metrics.

    The payload is lossless: :func:`design_from_dict` rebuilds an equal
    design (hardware, mapping, per-layer performance and area breakdown),
    which is what lets a JSONL result store feed ``--resume`` and render
    byte-identical tables without re-evaluating anything.
    """
    pe_pct, buffer_pct = design.area.pe_to_buffer_ratio
    return {
        "model": design.performance.model_name,
        "hardware": hardware_to_dict(design.hardware),
        "mapping": mapping_to_dict(design.mapping),
        "area": {
            "pe_area": design.area.pe_area,
            "l1_area": design.area.l1_area,
            "l2_area": design.area.l2_area,
        },
        "metrics": {
            "latency_cycles": design.latency,
            "energy": design.energy,
            "latency_area_product": design.latency_area_product,
            "area_um2": design.area.total,
            "pe_area_pct": pe_pct,
            "buffer_area_pct": buffer_pct,
            "num_pes": design.hardware.num_pes,
            "average_utilization": design.performance.average_utilization,
            "dram_bytes": design.performance.dram_bytes,
        },
        "per_layer": [
            layer_performance_to_dict(layer) for layer in design.performance.layers
        ],
    }


def design_from_dict(data: Dict[str, Any]) -> AcceleratorDesign:
    """Rebuild an accelerator design from :func:`design_to_dict` output."""
    performance = ModelPerformance(
        model_name=str(data.get("model", "")),
        layers=tuple(
            layer_performance_from_dict(layer) for layer in data["per_layer"]
        ),
    )
    area = AreaBreakdown(
        pe_area=float(data["area"]["pe_area"]),
        l1_area=float(data["area"]["l1_area"]),
        l2_area=float(data["area"]["l2_area"]),
    )
    return AcceleratorDesign(
        hardware=hardware_from_dict(data["hardware"]),
        mapping=mapping_from_dict(data["mapping"]),
        performance=performance,
        area=area,
    )


def evaluation_result_to_dict(result: EvaluationResult) -> Dict[str, Any]:
    """Serialize one evaluation result losslessly — valid or not.

    Unlike the store-facing result payloads (which only ship valid bests),
    this captures the *complete* tracker-visible state of a result:
    fitness (including graded invalid penalties), violations and the
    per-objective vector when present.  The search checkpoints
    (:mod:`repro.framework.checkpoint`) rely on this round-tripping
    exactly — a resumed search compares new candidates against the
    restored best's bit-identical fitness.
    """
    payload: Dict[str, Any] = {
        "fitness": result.fitness,
        "valid": result.valid,
        "objective": result.objective.value,
        "objective_value": result.objective_value,
        "design": design_to_dict(result.design),
        "violations": list(result.violations),
    }
    if result.genome is not None:
        payload["genome"] = genome_to_dict(result.genome)
    if result.objective_vector is not None:
        payload["objective_vector"] = list(result.objective_vector)
    return payload


def evaluation_result_from_dict(data: Dict[str, Any]) -> EvaluationResult:
    """Rebuild an evaluation result from :func:`evaluation_result_to_dict`."""
    vector = data.get("objective_vector")
    return EvaluationResult(
        fitness=float(data["fitness"]),
        valid=bool(data["valid"]),
        objective=Objective.from_name(data["objective"]),
        objective_value=float(data["objective_value"]),
        design=design_from_dict(data["design"]),
        violations=tuple(data.get("violations", ())),
        genome=(
            genome_from_dict(data["genome"]) if "genome" in data else None
        ),
        objective_vector=(
            tuple(float(value) for value in vector) if vector is not None else None
        ),
    )


def search_result_to_dict(result: SearchResult) -> Dict[str, Any]:
    """Serialize a search outcome (best design plus convergence history)."""
    payload: Dict[str, Any] = {
        "optimizer": result.optimizer_name,
        "evaluations": result.evaluations,
        "sampling_budget": result.sampling_budget,
        "wall_time_seconds": result.wall_time_seconds,
        "found_valid": result.found_valid,
        "history": [list(point) for point in result.history],
    }
    if result.found_valid:
        payload["best"] = design_to_dict(result.best.design)
        payload["best"]["fitness"] = result.best.fitness
        payload["best"]["objective"] = result.best.objective.value
        payload["best"]["objective_value"] = result.best.objective_value
        if result.best.genome is not None:
            payload["best"]["genome"] = genome_to_dict(result.best.genome)
    return payload


def search_result_from_dict(data: Dict[str, Any]) -> SearchResult:
    """Rebuild a search outcome from :func:`search_result_to_dict` output.

    The best design (and its genome, when stored) is reconstructed in full,
    so every derived metric the experiment tables use — ``best_latency``,
    ``best_latency_area_product``, ``best_objective_value`` — matches the
    original result exactly.  Results that found no valid design come back
    with ``best=None``; the invalid best-so-far point (if any) is not
    serialized in the first place.
    """
    best: "EvaluationResult | None" = None
    if data.get("found_valid") and "best" in data:
        stored = data["best"]
        design = design_from_dict(stored)
        objective = Objective.from_name(stored.get("objective", "latency"))
        genome = (
            genome_from_dict(stored["genome"]) if "genome" in stored else None
        )
        objective_value = float(
            stored.get("objective_value", stored["metrics"]["latency_cycles"])
        )
        best = EvaluationResult(
            fitness=float(stored.get("fitness", -objective_value)),
            valid=True,
            objective=objective,
            objective_value=objective_value,
            design=design,
            violations=(),
            genome=genome,
        )
    return SearchResult(
        optimizer_name=str(data["optimizer"]),
        best=best,
        evaluations=int(data["evaluations"]),
        sampling_budget=int(data["sampling_budget"]),
        wall_time_seconds=float(data["wall_time_seconds"]),
        history=tuple(
            (int(index), float(fitness)) for index, fitness in data.get("history", ())
        ),
    )


# -- Pareto fronts -------------------------------------------------------------


def pareto_result_to_dict(result: ParetoResult) -> Dict[str, Any]:
    """Serialize a multi-objective search outcome (lossless front).

    Every front member ships its full design (the same payload as a
    single-objective best) plus its per-objective value vector, so a stored
    front can be re-rendered, merged with other fronts and fed to
    downstream toolchains without re-evaluating anything.
    """
    front = []
    for entry in result.front:
        member: Dict[str, Any] = {
            "design": design_to_dict(entry.design),
            "fitness": entry.fitness,
            "objective": entry.objective.value,
            "objective_value": entry.objective_value,
            "objective_values": list(entry.objective_vector),
        }
        if entry.genome is not None:
            member["genome"] = genome_to_dict(entry.genome)
        front.append(member)
    return {
        "optimizer": result.optimizer_name,
        "objectives": list(result.objective_names),
        "evaluations": result.evaluations,
        "sampling_budget": result.sampling_budget,
        "wall_time_seconds": result.wall_time_seconds,
        "batch_calls": result.batch_calls,
        "front": front,
    }


def pareto_result_from_dict(data: Dict[str, Any]) -> ParetoResult:
    """Rebuild a multi-objective outcome from :func:`pareto_result_to_dict`."""
    objectives = tuple(Objective.from_name(name) for name in data["objectives"])
    front = []
    for member in data["front"]:
        vector = tuple(float(value) for value in member["objective_values"])
        objective = Objective.from_name(member.get("objective", objectives[0].value))
        objective_value = float(member.get("objective_value", vector[0]))
        genome = (
            genome_from_dict(member["genome"]) if "genome" in member else None
        )
        front.append(
            EvaluationResult(
                fitness=float(member.get("fitness", -objective_value)),
                valid=True,
                objective=objective,
                objective_value=objective_value,
                design=design_from_dict(member["design"]),
                violations=(),
                genome=genome,
                objective_vector=vector,
            )
        )
    return ParetoResult(
        optimizer_name=str(data["optimizer"]),
        objectives=objectives,
        front=tuple(front),
        evaluations=int(data["evaluations"]),
        sampling_budget=int(data["sampling_budget"]),
        wall_time_seconds=float(data["wall_time_seconds"]),
        batch_calls=int(data.get("batch_calls", 0)),
    )


def result_to_dict(result: Union[SearchResult, ParetoResult]) -> Dict[str, Any]:
    """Serialize either kind of search outcome (dispatch by type)."""
    if isinstance(result, ParetoResult):
        return pareto_result_to_dict(result)
    return search_result_to_dict(result)


def result_from_dict(data: Dict[str, Any]) -> Union[SearchResult, ParetoResult]:
    """Rebuild either kind of search outcome (dispatch on the payload).

    Pareto payloads are recognized by their ``"front"`` key; everything
    else deserializes as a single-objective :class:`SearchResult`, so
    stores written before multi-objective search existed keep loading.
    """
    if "front" in data:
        return pareto_result_from_dict(data)
    return search_result_from_dict(data)


# -- file helpers --------------------------------------------------------------


def save_json(data: Dict[str, Any], path: PathLike) -> Path:
    """Write a serialized object to ``path`` as indented JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(data, indent=2, sort_keys=True))
    return target


def load_json(path: PathLike) -> Dict[str, Any]:
    """Read a JSON file previously written by :func:`save_json`."""
    return json.loads(Path(path).read_text())
