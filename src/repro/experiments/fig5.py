"""Fig. 5 — comparison of optimization algorithms on the co-opt problem.

For every DNN model and platform, each of the nine optimization algorithms
searches the HW-Mapping space under the same sampling budget.  The harness
reports the latency and latency-area-product of the best valid design each
algorithm found, normalized to CMA (the strongest generic baseline), with a
geometric-mean row — the same layout as the paper's Fig. 5.

Run from the command line::

    python -m repro fig5 --platform edge --budget 1500
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.experiments.jobs import JobSpec
from repro.experiments.reporting import (
    append_geomean_row,
    format_table,
    normalize_by_column,
)
from repro.experiments.runner import Outcome
from repro.experiments.settings import FIG5_OPTIMIZERS, ExperimentSettings
from repro.framework.search import SearchResult
from repro.optim.registry import optimizer_class


@dataclass
class Fig5Result:
    """Raw and normalized results of one Fig. 5 run (one platform)."""

    platform: str
    optimizer_names: Tuple[str, ...]
    #: model -> optimizer display name -> latency (cycles) of best valid design.
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: model -> optimizer display name -> latency-area product.
    latency_area_product: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: model -> optimizer display name -> full search result.
    searches: Dict[str, Dict[str, SearchResult]] = field(default_factory=dict)

    def normalized_latency(self, reference: str = "CMA") -> Dict[str, Dict[str, float]]:
        """Latency normalized by ``reference`` with a GeoMean row (paper layout)."""
        table = normalize_by_column(self.latency, reference)
        return append_geomean_row(table, self.optimizer_names)

    def normalized_latency_area_product(
        self, reference: str = "CMA"
    ) -> Dict[str, Dict[str, float]]:
        """Latency-area product normalized by ``reference`` with a GeoMean row."""
        table = normalize_by_column(self.latency_area_product, reference)
        return append_geomean_row(table, self.optimizer_names)

    def report(self) -> str:
        """Render both normalized tables as plain text."""
        parts = [
            format_table(
                self.normalized_latency(),
                self.optimizer_names,
                title=f"Fig. 5 ({self.platform}) - latency normalized to CMA (lower is better)",
            ),
            "",
            format_table(
                self.normalized_latency_area_product(),
                self.optimizer_names,
                title=(
                    f"Fig. 5 ({self.platform}) - latency-area-product normalized to CMA "
                    "(lower is better)"
                ),
            ),
        ]
        return "\n".join(parts)


def compile_fig5_jobs(
    platform_name: str,
    settings: ExperimentSettings,
    optimizers: Sequence[str] = FIG5_OPTIMIZERS,
) -> List[JobSpec]:
    """Compile the Fig. 5 grid (model x optimizer on one platform) into jobs."""
    return [
        JobSpec(
            model=model_name,
            platform=platform_name,
            optimizer=optimizer_name,
            sampling_budget=settings.sampling_budget,
            seed=settings.seed,
        )
        for model_name in settings.models
        for optimizer_name in optimizers
    ]


def fig5_result_from_outcomes(
    platform_name: str,
    optimizers: Sequence[str],
    outcomes: Sequence[Outcome],
) -> Fig5Result:
    """Assemble the Fig. 5 tables from completed sweep outcomes."""
    display_names = tuple(optimizer_class(name).name for name in optimizers)
    result = Fig5Result(platform=platform_name, optimizer_names=display_names)
    for spec, search in outcomes:
        label = spec.scheme_label
        result.latency.setdefault(spec.model, {})[label] = search.best_latency
        result.latency_area_product.setdefault(spec.model, {})[label] = (
            search.best_latency_area_product
        )
        result.searches.setdefault(spec.model, {})[label] = search
    return result
