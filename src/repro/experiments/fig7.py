"""Fig. 7 — inspection of the solutions found by the three schemes.

For Mnasnet at edge resources, the harness runs one representative of each
scheme family (HW-opt with the dla-like mapping, Mapping-opt with the
Compute-focused HW, and DiGamma co-optimization) and reports, for the best
design each found: the encoded mapping, latency, area, latency-area product
and the PE:buffer area split — the same quantities as the paper's Fig. 7.

Run from the command line::

    python -m repro fig7 --budget 1500
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.arch.platform import get_platform
from repro.experiments.jobs import JobSpec
from repro.experiments.runner import Outcome
from repro.experiments.settings import ExperimentSettings
from repro.framework.search import SearchResult


@dataclass(frozen=True)
class SchemeSolution:
    """One row of the Fig. 7 table."""

    scheme: str
    search: SearchResult

    @property
    def found_valid(self) -> bool:
        """Whether the scheme found a budget-respecting design."""
        return self.search.found_valid

    def row(self) -> Dict[str, float]:
        """Numeric columns of the Fig. 7 table."""
        if not self.found_valid:
            return {
                "latency": float("inf"),
                "area": float("inf"),
                "latency_area_product": float("inf"),
                "pe_area_pct": float("nan"),
                "buffer_area_pct": float("nan"),
            }
        design = self.search.best.design
        pe_pct, buffer_pct = design.area.pe_to_buffer_ratio
        return {
            "latency": design.latency,
            "area": design.area.total,
            "latency_area_product": design.latency_area_product,
            "pe_area_pct": pe_pct,
            "buffer_area_pct": buffer_pct,
        }

    def describe(self) -> str:
        """Multi-line description including the found encoding."""
        if not self.found_valid:
            return f"{self.scheme}: no valid solution found"
        design = self.search.best.design
        row = self.row()
        lines = [
            f"{self.scheme}:",
            f"  latency = {row['latency']:.3e} cycles",
            f"  area = {row['area']:.3e} um^2 "
            f"(PE {row['pe_area_pct']:.0f}% : buffer {row['buffer_area_pct']:.0f}%)",
            f"  latency-area product = {row['latency_area_product']:.3e}",
            "  found encoding:",
        ]
        lines.extend("    " + line for line in design.mapping.describe().splitlines())
        return "\n".join(lines)


@dataclass(frozen=True)
class Fig7Result:
    """Solutions of the three schemes for one model and platform."""

    model: str
    platform: str
    area_budget_um2: float
    solutions: Dict[str, SchemeSolution]

    def report(self) -> str:
        """Render the full Fig. 7-style report."""
        lines = [
            f"Fig. 7 - solutions found for {self.model} at {self.platform} resources "
            f"(area constraint {self.area_budget_um2:.2e} um^2)",
            "",
        ]
        for solution in self.solutions.values():
            lines.append(solution.describe())
            lines.append("")
        return "\n".join(lines)


def compile_fig7_jobs(
    model_name: str,
    platform_name: str,
    settings: ExperimentSettings,
) -> List[JobSpec]:
    """Compile the three representative schemes into jobs."""
    common = dict(
        model=model_name,
        platform=platform_name,
        sampling_budget=settings.sampling_budget,
        seed=settings.seed,
    )
    return [
        JobSpec(
            optimizer="grid",
            optimizer_options={"dataflow": "dla"},
            scheme="HW-opt (Grid-S + dla-like)",
            **common,
        ),
        JobSpec(
            optimizer="gamma",
            fixed_hw_style="Compute-focused",
            scheme="Mapping-opt (Compute-focused + Gamma)",
            **common,
        ),
        JobSpec(optimizer="digamma", scheme="HW-Map-co-opt (DiGamma)", **common),
    ]


def fig7_result_from_outcomes(
    model_name: str,
    platform_name: str,
    outcomes: Sequence[Outcome],
) -> Fig7Result:
    """Assemble the Fig. 7 report from completed sweep outcomes."""
    solutions: Dict[str, SchemeSolution] = {
        spec.scheme_label: SchemeSolution(scheme=spec.scheme_label, search=search)
        for spec, search in outcomes
    }
    return Fig7Result(
        model=model_name,
        platform=platform_name,
        area_budget_um2=get_platform(platform_name).area_budget_um2,
        solutions=solutions,
    )
