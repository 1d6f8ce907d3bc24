"""Tests for the NSGA-II multi-objective optimizer."""

import pytest

from repro.arch.platform import EDGE
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.objective import Objective
from repro.optim.nsga2 import NSGA2, NSGA2HyperParameters
from repro.optim.registry import get_optimizer
from repro.workloads.registry import get_model

#: The pinned acceptance configuration: one NSGA-II search whose budget
#: equals the *total* budget of the per-objective scalar searches it
#: replaces (three objectives, so each scalar search gets a third).  All
#: searches are deterministic functions of the seed, so the comparison is
#: stable.
ACCEPTANCE_MODEL = "ncf"
ACCEPTANCE_BUDGET = 240
ACCEPTANCE_SEED = 1
ACCEPTANCE_OBJECTIVES = ("latency", "energy", "area")


class TestRegistry:
    def test_nsga2_registered_with_aliases(self):
        assert get_optimizer("nsga2").name == "NSGA-II"
        assert get_optimizer("NSGA-II").name == "NSGA-II"
        assert get_optimizer("nsga").name == "NSGA-II"


class TestHyperParameters:
    def test_population_scales_with_budget(self):
        params = NSGA2HyperParameters()
        assert params.resolved_population(100) == 20
        assert params.resolved_population(2000) == 80
        assert params.resolved_population(10**6) == 100
        assert NSGA2HyperParameters(population_size=12).resolved_population(5) == 12

    def test_validation(self):
        with pytest.raises(ValueError, match="population_size"):
            NSGA2HyperParameters(population_size=2)
        with pytest.raises(ValueError, match="crossover_rate"):
            NSGA2HyperParameters(crossover_rate=1.5)
        with pytest.raises(ValueError, match="extreme_bias"):
            NSGA2HyperParameters(extreme_bias=-0.1)
        with pytest.raises(ValueError, match="seeded_fraction"):
            NSGA2(seeded_fraction=2.0)


class TestMultiObjectiveSearch:
    @pytest.fixture(scope="class")
    def front(self):
        framework = CoOptimizationFramework(
            get_model(ACCEPTANCE_MODEL),
            EDGE,
            objectives=",".join(ACCEPTANCE_OBJECTIVES),
        )
        try:
            return framework.pareto_search(
                get_optimizer("nsga2"),
                sampling_budget=ACCEPTANCE_BUDGET,
                seed=ACCEPTANCE_SEED,
            )
        finally:
            framework.close()

    def test_front_is_non_dominated_and_non_empty(self, front):
        assert front.found_valid
        assert front.is_non_dominated()
        assert len(set(front.front_values)) == len(front.front_values)

    def test_budget_respected_exactly(self, front):
        assert front.evaluations == ACCEPTANCE_BUDGET

    def test_batched_fast_path_engaged(self, front):
        """Multi-objective search must not drop the batched evaluation path.

        This is the same regression class the portfolio budget-slice fix
        guarded against: every generation must arrive through the batched
        views so the vector engine sees whole populations.
        """
        population = NSGA2HyperParameters().resolved_population(ACCEPTANCE_BUDGET)
        assert front.batch_calls == front.evaluations // population

    def test_deterministic_given_seed(self, front):
        framework = CoOptimizationFramework(
            get_model(ACCEPTANCE_MODEL),
            EDGE,
            objectives=",".join(ACCEPTANCE_OBJECTIVES),
        )
        try:
            again = framework.pareto_search(
                get_optimizer("nsga2"),
                sampling_budget=ACCEPTANCE_BUDGET,
                seed=ACCEPTANCE_SEED,
            )
        finally:
            framework.close()
        assert again.front_values == front.front_values

    @pytest.mark.parametrize("comparator", ["nsga2", "digamma"])
    def test_extremes_no_worse_than_scalar_searches(self, front, comparator):
        """One front replaces one scalar search per objective.

        The acceptance bar of the multi-objective subsystem: under the
        same total sampling budget (the front's budget equals the sum of
        the per-objective scalar budgets) and the same seed, the front's
        extreme point on every axis is at least as good as what the
        corresponding dedicated single-objective search finds.
        """
        per_axis_budget = ACCEPTANCE_BUDGET // len(ACCEPTANCE_OBJECTIVES)
        for name in ACCEPTANCE_OBJECTIVES:
            objective = Objective.from_name(name)
            framework = CoOptimizationFramework(
                get_model(ACCEPTANCE_MODEL), EDGE, objective=objective
            )
            try:
                scalar = framework.search(
                    get_optimizer(comparator),
                    sampling_budget=per_axis_budget,
                    seed=ACCEPTANCE_SEED,
                )
            finally:
                framework.close()
            assert scalar.found_valid
            assert front.extreme_value(objective) <= scalar.best_objective_value, (
                f"front extreme on {name} is worse than the dedicated "
                f"{comparator} search ({front.extreme_value(objective):.6e} "
                f"> {scalar.best_objective_value:.6e})"
            )


class TestScalarFallback:
    def test_runs_as_single_objective_optimizer(self):
        """Without an ObjectiveSet, NSGA-II degrades to an elitist GA."""
        framework = CoOptimizationFramework(get_model("ncf"), EDGE)
        try:
            result = framework.search(
                get_optimizer("nsga2"), sampling_budget=100, seed=0
            )
        finally:
            framework.close()
        assert result.found_valid
        assert result.evaluations == 100
        assert result.optimizer_name == "NSGA-II"
