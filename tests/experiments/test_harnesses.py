"""Smoke tests of the Fig. 5 / Fig. 6 / Fig. 7 / ablation harnesses.

These compile each suite's jobs, run them through the sweep runner and
assemble the suite's result on a single small model with a tiny sampling
budget, checking the structure of the outputs rather than the paper-scale
numbers (``repro experiments`` at full budget regenerates those).
"""

import math

import pytest

from repro.__main__ import main
from repro.experiments.ablations import (
    ablation_result_from_outcomes,
    compile_buffer_allocation_jobs,
    compile_operator_ablation_jobs,
)
from repro.experiments.fig5 import compile_fig5_jobs, fig5_result_from_outcomes
from repro.experiments.fig6 import (
    REFERENCE_SCHEME,
    compile_fig6_jobs,
    fig6_result_from_outcomes,
    scheme_names,
)
from repro.experiments.fig7 import compile_fig7_jobs, fig7_result_from_outcomes
from repro.experiments.runner import SweepRunner
from repro.experiments.settings import ExperimentSettings

TINY = ExperimentSettings(models=("ncf",), sampling_budget=60, seed=0)
SUBSET_OPTIMIZERS = ("random", "cma", "digamma")


def run(jobs):
    """Outcomes of ``jobs`` run under the TINY settings."""
    return SweepRunner(jobs, settings=TINY).run()


@pytest.fixture(scope="module")
def fig5_result():
    jobs = compile_fig5_jobs("edge", TINY, SUBSET_OPTIMIZERS)
    return fig5_result_from_outcomes("edge", SUBSET_OPTIMIZERS, run(jobs))


class TestFig5:
    def test_structure(self, fig5_result):
        assert fig5_result.platform == "edge"
        assert set(fig5_result.latency) == {"ncf"}
        assert set(fig5_result.latency["ncf"]) == {"Random", "CMA", "DiGamma"}

    def test_normalization_reference_is_one(self, fig5_result):
        normalized = fig5_result.normalized_latency("CMA")
        assert normalized["ncf"]["CMA"] == pytest.approx(1.0)
        assert "GeoMean" in normalized

    def test_lap_table_present(self, fig5_result):
        lap = fig5_result.normalized_latency_area_product("CMA")
        assert lap["ncf"]["CMA"] == pytest.approx(1.0)

    def test_report_renders(self, fig5_result):
        text = fig5_result.report()
        assert "Fig. 5" in text
        assert "DiGamma" in text

    def test_searches_respect_budget(self, fig5_result):
        for per_model in fig5_result.searches.values():
            for search in per_model.values():
                assert search.evaluations <= TINY.sampling_budget

    def test_cli_runs(self, capsys):
        exit_code = main(
            ["fig5", "--platform", "edge", "--budget", "40", "--models", "ncf"]
        )
        assert exit_code == 0
        assert "Fig. 5" in capsys.readouterr().out


class TestFig6:
    def test_structure_and_reference(self):
        result = fig6_result_from_outcomes("edge", run(compile_fig6_jobs("edge", TINY)))
        assert set(result.latency) == {"ncf"}
        assert set(result.latency["ncf"]) == set(scheme_names())
        normalized = result.normalized_latency()
        reference_value = normalized["ncf"][REFERENCE_SCHEME]
        assert reference_value == pytest.approx(1.0) or math.isinf(reference_value)
        assert "DiGamma" in result.report()

    def test_scheme_names_cover_all_families(self):
        names = scheme_names()
        assert len(names) == 7
        assert sum("Grid-S" in name for name in names) == 3
        assert sum("+Gamma" in name for name in names) == 3
        assert "DiGamma" in names


class TestFig7:
    def test_structure(self):
        jobs = compile_fig7_jobs("ncf", "edge", TINY)
        result = fig7_result_from_outcomes("ncf", "edge", run(jobs))
        assert len(result.solutions) == 3
        for solution in result.solutions.values():
            row = solution.row()
            assert set(row) == {
                "latency",
                "area",
                "latency_area_product",
                "pe_area_pct",
                "buffer_area_pct",
            }
            if solution.found_valid:
                assert row["area"] <= result.area_budget_um2
                assert row["pe_area_pct"] + row["buffer_area_pct"] == pytest.approx(100.0)
        assert "Fig. 7" in result.report()

    def test_cli_runs(self, capsys):
        exit_code = main(["fig7", "--model", "ncf", "--budget", "40"])
        assert exit_code == 0
        assert "Fig. 7" in capsys.readouterr().out


class TestAblations:
    def test_operator_ablation_structure(self):
        jobs = compile_operator_ablation_jobs("edge", TINY, models=("ncf",))
        result = ablation_result_from_outcomes("edge", run(jobs))
        assert set(result.latency) == {"ncf"}
        assert set(result.latency["ncf"]) == {
            "DiGamma",
            "no-HW-op",
            "no-struct-ops",
            "stdGA",
        }
        assert "DiGamma" in result.report("ablation")

    def test_buffer_allocation_ablation_structure(self):
        jobs = compile_buffer_allocation_jobs("edge", TINY, models=("ncf",))
        result = ablation_result_from_outcomes(
            "edge", run(jobs), metric="latency_area_product"
        )
        assert set(result.latency["ncf"]) == {"exact", "fill"}
