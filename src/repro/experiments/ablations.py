"""Ablation studies of DiGamma's design choices (extensions beyond the paper).

Two ablations are provided:

* **Operator ablation** — DiGamma with all specialised operators, without
  the HW operator (i.e. HW genes only move through crossover), without the
  structured mapping operators, and the blind standard GA.  This isolates
  the contribution of the domain-aware operators claimed in Sec. IV-C.
* **Buffer-allocation ablation** — the paper's exact-requirement buffer
  allocation versus the naive "fill the remaining area with L2" policy.

Run from the command line::

    python -m repro ablations --budget 1000
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.jobs import JobSpec
from repro.experiments.reporting import format_table
from repro.experiments.runner import Outcome
from repro.experiments.settings import ExperimentSettings
from repro.framework.search import SearchResult

#: Models used by the ablations (small + convolutional, per DESIGN.md A1/A2).
ABLATION_MODELS = ("resnet18", "mnasnet")

#: Operator-ablation variants: scheme label -> DiGamma constructor options
#: (``None`` marks the blind standard GA).
OPERATOR_VARIANTS: Dict[str, Optional[Dict[str, bool]]] = {
    "DiGamma": {},
    "no-HW-op": {"use_hw_operators": False},
    "no-struct-ops": {"use_structured_operators": False},
    "stdGA": None,
}


@dataclass
class AblationResult:
    """Latencies of every ablation variant per model."""

    platform: str
    variant_names: tuple
    #: model -> variant -> latency of the best valid design.
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: model -> variant -> full search result.
    searches: Dict[str, Dict[str, SearchResult]] = field(default_factory=dict)

    def report(self, title: str) -> str:
        """Render the latency table as plain text."""
        return format_table(
            self.latency, self.variant_names, title=title, precision=3
        )


def compile_operator_ablation_jobs(
    platform_name: str,
    settings: ExperimentSettings,
    models: Sequence[str] = ABLATION_MODELS,
) -> List[JobSpec]:
    """Compile the operator ablation (DiGamma variants vs stdGA) into jobs."""
    jobs: List[JobSpec] = []
    for model_name in models:
        for scheme, options in OPERATOR_VARIANTS.items():
            jobs.append(
                JobSpec(
                    model=model_name,
                    platform=platform_name,
                    optimizer="stdga" if options is None else "digamma",
                    optimizer_options=options or {},
                    scheme=scheme,
                    sampling_budget=settings.sampling_budget,
                    seed=settings.seed,
                )
            )
    return jobs


def compile_buffer_allocation_jobs(
    platform_name: str,
    settings: ExperimentSettings,
    models: Sequence[str] = ("resnet18",),
) -> List[JobSpec]:
    """Compile the buffer-allocation ablation (exact vs fill) into jobs."""
    return [
        JobSpec(
            model=model_name,
            platform=platform_name,
            optimizer="digamma",
            buffer_allocation=allocation,
            scheme=allocation,
            sampling_budget=settings.sampling_budget,
            seed=settings.seed,
        )
        for model_name in models
        for allocation in ("exact", "fill")
    ]


def ablation_result_from_outcomes(
    platform_name: str,
    outcomes: Sequence[Outcome],
    metric: str = "latency",
) -> AblationResult:
    """Assemble an ablation table from completed sweep outcomes.

    ``metric`` selects the tabulated quantity: ``"latency"`` (operator
    ablation) or ``"latency_area_product"`` (buffer-allocation ablation —
    over-allocation does not change latency, it wastes area, so the metric
    that exposes the strategy is the latency-area product).
    """
    variant_names = tuple(dict.fromkeys(spec.scheme_label for spec, _ in outcomes))
    result = AblationResult(platform=platform_name, variant_names=variant_names)
    for spec, search in outcomes:
        value = (
            search.best_latency_area_product
            if metric == "latency_area_product"
            else search.best_latency
        )
        result.latency.setdefault(spec.model, {})[spec.scheme_label] = value
        result.searches.setdefault(spec.model, {})[spec.scheme_label] = search
    return result
