"""Pareto suite — one multi-objective search per model and platform.

Where Fig. 5/6/7 scalarize the trade-offs into separate searches per
objective, this suite runs one NSGA-II search per model x platform and
stores the whole latency/energy/area front: every point on the stored
curve is a full decoded design, so downstream consumers pick their
operating point after the fact instead of re-searching.

Run from the command line::

    python -m repro pareto --platform edge --budget 1500

``python -m repro experiments --verify-store results.jsonl`` checks the
stored fronts (see :func:`repro.experiments.runner.front_problems`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import pareto_front_report
from repro.experiments.jobs import JobSpec
from repro.experiments.runner import Outcome
from repro.experiments.settings import ExperimentSettings
from repro.framework.pareto import ParetoResult

#: The default multi-objective axis set of the suite.
PARETO_OBJECTIVES: Tuple[str, ...] = ("latency", "energy", "area")

#: The optimizer driving the suite's searches.
PARETO_OPTIMIZER = "nsga2"


@dataclass
class ParetoSuiteResult:
    """Per-model fronts of one Pareto-suite run (one platform)."""

    platform: str
    objectives: Tuple[str, ...]
    #: model -> Pareto front of the model's search.
    fronts: Dict[str, ParetoResult] = field(default_factory=dict)

    def report(self) -> str:
        """Render every model's front as a plain-text table."""
        parts = []
        for model_name, front in self.fronts.items():
            parts.append(
                pareto_front_report(
                    front,
                    title=(
                        f"Pareto front ({self.platform}/{model_name}) - "
                        f"{front.summary()}"
                    ),
                )
            )
            parts.append("")
        return "\n".join(parts).rstrip()


def compile_pareto_jobs(
    platform_name: str,
    settings: ExperimentSettings,
    models: Optional[Sequence[str]] = None,
    objectives: Sequence[str] = PARETO_OBJECTIVES,
    optimizer: str = PARETO_OPTIMIZER,
) -> List[JobSpec]:
    """Compile the Pareto grid (one front per model) into job specs."""
    return [
        JobSpec(
            model=model_name,
            platform=platform_name,
            optimizer=optimizer,
            sampling_budget=settings.sampling_budget,
            seed=settings.seed,
            objectives=tuple(objectives),
        )
        for model_name in (models if models is not None else settings.models)
    ]


def pareto_result_from_outcomes(
    platform_name: str,
    outcomes: Sequence[Outcome],
    objectives: Sequence[str] = PARETO_OBJECTIVES,
) -> ParetoSuiteResult:
    """Assemble the suite result from completed sweep outcomes."""
    result = ParetoSuiteResult(
        platform=platform_name, objectives=tuple(objectives)
    )
    for spec, outcome in outcomes:
        if isinstance(outcome, ParetoResult):
            result.fronts[spec.model] = outcome
    return result
