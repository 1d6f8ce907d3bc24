"""HW-Mapping co-optimization framework (the paper's contribution #1)."""

from repro.framework.constraints import ConstraintChecker, ConstraintResult
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.designpoint import AcceleratorDesign
from repro.framework.designspace import hw_space_size, mapping_space_size, total_space_size
from repro.framework.evaluator import DesignEvaluator, EvaluationResult
from repro.framework.objective import (
    Objective,
    ObjectiveSet,
    objective_value,
    objective_vector,
)
from repro.framework.pareto import (
    ParetoArchive,
    ParetoResult,
    crowding_distances,
    dominates,
    fast_non_dominated_sort,
    non_dominated_indices,
)
from repro.framework.search import SearchResult, SearchTracker

__all__ = [
    "ConstraintChecker",
    "ConstraintResult",
    "CoOptimizationFramework",
    "AcceleratorDesign",
    "DesignEvaluator",
    "EvaluationResult",
    "Objective",
    "ObjectiveSet",
    "objective_value",
    "objective_vector",
    "ParetoArchive",
    "ParetoResult",
    "crowding_distances",
    "dominates",
    "fast_non_dominated_sort",
    "non_dominated_indices",
    "SearchResult",
    "SearchTracker",
    "hw_space_size",
    "mapping_space_size",
    "total_space_size",
]
