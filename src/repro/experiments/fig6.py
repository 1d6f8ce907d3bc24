"""Fig. 6 — HW-opt and Mapping-opt baselines vs. HW-Mapping co-optimization.

Three scheme families are compared for every model and platform:

* **HW-opt**: grid search over HW configurations with a fixed, manually
  designed mapping (dla-like, shi-like or eye-like).
* **Mapping-opt**: GAMMA mapping search over a fixed, manually chosen HW
  configuration (Buffer-focused, Medium-Buf-Com or Compute-focused).
* **HW-Map-co-opt**: DiGamma searching both together.

Latencies are normalized to the strongest non-co-opt scheme
(Compute-focused + Gamma), as in the paper.

Run from the command line::

    python -m repro fig6 --platform edge --budget 1500
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
from repro.experiments.settings import FIXED_HW_STYLES, ExperimentSettings
from repro.framework.search import SearchResult
from repro.mapping.dataflows import DATAFLOW_STYLES

#: Reference scheme used for normalization (the paper's best baseline).
REFERENCE_SCHEME = "Compute-focused+Gamma"


@dataclass
class Fig6Result:
    """Raw and normalized results of one Fig. 6 run (one platform)."""

    platform: str
    scheme_names: Tuple[str, ...]
    #: model -> scheme -> latency (cycles) of the best valid design.
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: model -> scheme -> full search result.
    searches: Dict[str, Dict[str, SearchResult]] = field(default_factory=dict)

    def normalized_latency(
        self, reference: str = REFERENCE_SCHEME
    ) -> Dict[str, Dict[str, float]]:
        """Latency normalized by ``reference`` with a GeoMean row."""
        table = normalize_by_column(self.latency, reference)
        return append_geomean_row(table, self.scheme_names)

    def report(self) -> str:
        """Render the normalized table as plain text."""
        return format_table(
            self.normalized_latency(),
            self.scheme_names,
            title=(
                f"Fig. 6 ({self.platform}) - latency normalized to "
                f"{REFERENCE_SCHEME} (lower is better)"
            ),
        )


def scheme_names() -> Tuple[str, ...]:
    """Display names of all schemes, in the paper's column order."""
    hw_opt = tuple(f"Grid-S+{style}-like" for style in DATAFLOW_STYLES)
    mapping_opt = tuple(f"{style}+Gamma" for style in FIXED_HW_STYLES)
    return hw_opt + mapping_opt + ("DiGamma",)


def compile_fig6_jobs(
    platform_name: str,
    settings: ExperimentSettings,
) -> List[JobSpec]:
    """Compile the Fig. 6 scheme comparison into jobs.

    Per model: HW-opt grid searches (one per dataflow style), Mapping-opt
    GAMMA searches (one per fixed-HW style) and the DiGamma co-optimization,
    in the paper's column order.
    """
    jobs: List[JobSpec] = []
    for model_name in settings.models:
        common = dict(
            model=model_name,
            platform=platform_name,
            sampling_budget=settings.sampling_budget,
            seed=settings.seed,
        )
        for style in DATAFLOW_STYLES:
            jobs.append(
                JobSpec(
                    optimizer="grid",
                    optimizer_options={"dataflow": style},
                    scheme=f"Grid-S+{style}-like",
                    **common,
                )
            )
        for style in FIXED_HW_STYLES:
            jobs.append(
                JobSpec(
                    optimizer="gamma",
                    fixed_hw_style=style,
                    scheme=f"{style}+Gamma",
                    **common,
                )
            )
        jobs.append(JobSpec(optimizer="digamma", scheme="DiGamma", **common))
    return jobs


def fig6_result_from_outcomes(
    platform_name: str, outcomes: Sequence[Outcome]
) -> Fig6Result:
    """Assemble the Fig. 6 table from completed sweep outcomes."""
    result = Fig6Result(platform=platform_name, scheme_names=scheme_names())
    for spec, search in outcomes:
        result.latency.setdefault(spec.model, {})[spec.scheme_label] = (
            search.best_latency
        )
        result.searches.setdefault(spec.model, {})[spec.scheme_label] = search
    return result
