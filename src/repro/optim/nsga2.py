"""NSGA-II multi-objective search over the HW-Mapping design space.

The classic elitist multi-objective GA (fast non-dominated sort + crowding
distance, binary tournament on ``(rank, -crowding)``), driving the same
structured DiGamma operators (:mod:`repro.optim.digamma.operators`) that
make the scalar GA sample-efficient on this space.  One run yields the
whole latency/energy/area (or any other
:class:`~repro.framework.objective.ObjectiveSet`) trade-off front: the
tracker archives every valid evaluation, while NSGA-II's selection spreads
the sampling budget across the front instead of collapsing onto a single
scalarized optimum.

The population lives in a
:class:`~repro.encoding.genome_matrix.GenomeMatrix` bred with DiGamma's
``*_row`` operators, and evaluation goes exclusively through the tracker's
batched results view
(:meth:`~repro.framework.search.SearchTracker.evaluate_matrix_results`):
whole generations are priced in one call, exactly like the
single-objective population algorithms.  The loop runs under every engine
and hierarchy depth and checkpoints at each generation boundary.

Run without an objective set, each evaluation's ranking vector degrades to
the scalar objective value, turning NSGA-II into a plain elitist GA — so
the optimizer stays usable through every single-objective entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.encoding.genome_matrix import GenomeMatrix
from repro.framework.evaluator import EvaluationResult
from repro.framework.pareto import crowding_distances, fast_non_dominated_sort
from repro.framework.search import SearchTracker
from repro.optim.base import Optimizer, checkpoint_generation, resume_state
from repro.optim.digamma import operators


@dataclass(frozen=True)
class NSGA2HyperParameters:
    """Hyper-parameters of the NSGA-II loop.

    Operator rates mirror the DiGamma defaults — the reproduction pipeline
    is the same; only the selection scheme differs.
    """

    population_size: Optional[int] = None
    crossover_rate: float = 0.60
    reorder_rate: float = 0.30
    grow_rate: float = 0.40
    mutate_map_rate: float = 0.50
    mutate_hw_rate: float = 0.30
    #: Probability that a child's first parent is the current best
    #: individual of one (randomly chosen) objective axis instead of a
    #: tournament winner.  Crowding alone preserves the front's extreme
    #: points but applies no pressure to *improve* them; this bias spends
    #: part of each generation refining the per-objective extremes so the
    #: front's endpoints track what dedicated scalar searches would find.
    extreme_bias: float = 0.25

    def __post_init__(self) -> None:
        if self.population_size is not None and self.population_size < 4:
            raise ValueError("population_size must be >= 4 when given")
        for name in (
            "crossover_rate",
            "reorder_rate",
            "grow_rate",
            "mutate_map_rate",
            "mutate_hw_rate",
            "extreme_bias",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def resolved_population(self, sampling_budget: int) -> int:
        """Population size: explicit value, or scaled to the sampling budget."""
        if self.population_size is not None:
            return self.population_size
        return int(np.clip(sampling_budget // 25, 20, 100))


class NSGA2(Optimizer):
    """Elitist Pareto-front GA (NSGA-II) with DiGamma's structured operators.

    Parameters
    ----------
    hyper_parameters:
        Loop knobs; defaults mirror DiGamma's operator rates.
    seeded_fraction:
        Fraction of the initial population drawn from the domain-informed
        sampler instead of the uniform random sampler (same prior as
        DiGamma: budget-filling PE arrays, large parallel dimensions).
    """

    name = "NSGA-II"
    supports_checkpoint = True

    def __init__(
        self,
        hyper_parameters: Optional[NSGA2HyperParameters] = None,
        seeded_fraction: float = 0.5,
    ):
        if not 0.0 <= seeded_fraction <= 1.0:
            raise ValueError("seeded_fraction must be in [0, 1]")
        self.hyper_parameters = (
            hyper_parameters if hyper_parameters is not None else NSGA2HyperParameters()
        )
        self.seeded_fraction = seeded_fraction

    def _num_objectives(self, tracker) -> int:
        objectives = getattr(
            getattr(tracker, "evaluator", None), "objectives", None
        )
        return len(objectives) if objectives is not None else 1

    # -- the NSGA-II loop ---------------------------------------------------

    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        params = self.hyper_parameters
        space = tracker.space
        population_size = params.resolved_population(tracker.sampling_budget)
        num_objectives = self._num_objectives(tracker)

        state = resume_state(tracker, "nsga2-matrix")
        if state is not None:
            num_levels = int(state["num_levels"])
            rows = [list(map(int, row)) for row in state["rows"]]
            values = [
                tuple(float(value) for value in vector)
                for vector in state["values"]
            ]
        else:
            population = GenomeMatrix.from_genomes(
                operators.initial_population(
                    space, population_size, self.seeded_fraction, rng
                )
            )
            num_levels = population.num_levels
            rows = population.data.tolist()
            results = tracker.evaluate_matrix_results(population)
            if len(results) < len(rows):
                return
            values = [
                self._ranking_vector(result, num_objectives)
                for result in results
            ]

        # Selection and reproduction consult only rows + ranking vectors
        # (full EvaluationResults live in the tracker's archive), so the
        # carried — and checkpointed — loop state is exactly these two.
        def loop_state():
            return {
                "kind": "nsga2-matrix",
                "rows": rows,
                "num_levels": num_levels,
                "values": [list(vector) for vector in values],
            }

        while not tracker.exhausted:
            checkpoint_generation(tracker, loop_state)
            ranks, crowding = self._rank(values)
            children = [
                self._make_child_row(
                    rows, values, ranks, crowding, space, num_levels, rng
                )
                for _ in range(population_size)
            ]
            child_results = tracker.evaluate_matrix_results(
                GenomeMatrix(np.array(children, dtype=np.int64), num_levels)
            )
            if len(child_results) < len(children):
                return  # budget ran out mid-generation; tracker has the rest

            combined_rows = rows + children
            combined_values = values + [
                self._ranking_vector(result, num_objectives)
                for result in child_results
            ]
            survivors = self._environmental_selection(
                combined_values, population_size
            )
            rows = [combined_rows[i] for i in survivors]
            values = [combined_values[i] for i in survivors]

    # -- selection ----------------------------------------------------------

    @staticmethod
    def _rank(
        values: Sequence[Tuple[float, ...]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-individual (front rank, crowding distance) of a population."""
        ranks = np.zeros(len(values), dtype=int)
        crowding = np.zeros(len(values))
        for front_rank, front in enumerate(fast_non_dominated_sort(values)):
            front_values = [values[i] for i in front]
            distances = crowding_distances(front_values)
            for position, index in enumerate(front):
                ranks[index] = front_rank
                crowding[index] = distances[position]
        return ranks, crowding

    @staticmethod
    def _environmental_selection(
        values: Sequence[Tuple[float, ...]], capacity: int
    ) -> List[int]:
        """NSGA-II survivor selection: whole fronts, crowding-truncated last."""
        survivors: List[int] = []
        for front in fast_non_dominated_sort(values):
            if len(survivors) + len(front) <= capacity:
                survivors.extend(front)
                if len(survivors) == capacity:
                    break
                continue
            front_values = [values[i] for i in front]
            distances = crowding_distances(front_values)
            order = np.argsort(distances, kind="stable")[::-1]
            survivors.extend(front[i] for i in order[: capacity - len(survivors)])
            break
        return survivors

    def _tournament(
        self,
        ranks: np.ndarray,
        crowding: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """Binary tournament: lower front rank wins, crowding breaks ties."""
        a, b = rng.integers(len(ranks)), rng.integers(len(ranks))
        if ranks[a] != ranks[b]:
            return int(a if ranks[a] < ranks[b] else b)
        return int(a if crowding[a] >= crowding[b] else b)

    def _make_child_row(
        self,
        rows: List[List[int]],
        values: List[Tuple[float, ...]],
        ranks: np.ndarray,
        crowding: np.ndarray,
        space,
        num_levels: int,
        rng: np.random.Generator,
    ) -> List[int]:
        """Breed one child row from tournament (or extreme-point) parents."""
        params = self.hyper_parameters
        if rng.random() < params.extreme_bias:
            axis = int(rng.integers(len(values[0])))
            extreme = min(range(len(values)), key=lambda i: values[i][axis])
            parent_a = rows[extreme]
        else:
            parent_a = rows[self._tournament(ranks, crowding, rng)]
        parent_b = rows[self._tournament(ranks, crowding, rng)]

        if rng.random() < params.crossover_rate:
            child = operators.crossover_rows(parent_a, parent_b, num_levels, rng)
        else:
            child = parent_a.copy()
        if rng.random() < params.reorder_rate:
            operators.reorder_row(child, num_levels, rng)
        if rng.random() < params.grow_rate:
            operators.grow_row(child, space, num_levels, rng)
        if rng.random() < params.mutate_map_rate:
            operators.mutate_map_row(child, space, num_levels, rng)
        if rng.random() < params.mutate_hw_rate:
            operators.mutate_hw_row(child, space, num_levels, rng)
        return child

    # -- ranking vectors -----------------------------------------------------

    @staticmethod
    def _ranking_vector(
        result: EvaluationResult, num_objectives: int
    ) -> Tuple[float, ...]:
        """Minimization vector NSGA-II ranks a result by.

        Valid designs rank by their objective vector (or the scalar
        objective when no vector was requested).  Invalid designs rank by
        their graded penalty replicated across all axes: every valid point
        dominates every invalid one, while less-severe violations dominate
        more-severe ones — the multi-objective counterpart of the scalar
        path's graded negative fitness.
        """
        if result.valid:
            vector = result.objective_vector
            if vector is not None:
                return tuple(vector)
            return (result.objective_value,)
        return (-result.fitness,) * num_objectives
