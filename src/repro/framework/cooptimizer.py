"""The Co-opt Framework front-end.

Ties everything together (paper Fig. 2): take a model, an objective, a
design budget (platform) and optionally a design constraint (fixed HW), and
run any plugged-in optimization algorithm under a sampling budget.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Protocol, Union

import numpy as np

from repro.arch.area import AreaModel
from repro.arch.energy import EnergyModel
from repro.arch.hardware import HardwareConfig
from repro.arch.platform import Platform
from repro.framework.checkpoint import (
    CheckpointSession,
    CheckpointStore,
    restore_search_state,
)
from repro.framework.evaluator import DesignEvaluator
from repro.framework.objective import Objective, ObjectiveSet
from repro.framework.pareto import (
    DEFAULT_ARCHIVE_CAPACITY,
    ParetoArchive,
    ParetoResult,
)
from repro.framework.search import SearchResult, SearchTracker
from repro.workloads.model import Model


class SupportsRun(Protocol):
    """Anything with a ``name`` and a ``run(tracker, rng)`` method.

    This is the whole contract an optimization algorithm must satisfy to be
    plugged into the framework.
    """

    name: str

    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        """Spend the tracker's sampling budget looking for good designs."""


class CoOptimizationFramework:
    """HW-Mapping co-optimization for one model on one platform.

    Parameters
    ----------
    model:
        Target DNN model.
    platform:
        Edge or cloud platform preset (area budget + bandwidths).
    objective:
        Metric to minimize (latency by default, as in the paper).
    num_levels:
        Cluster levels of the accelerator hierarchy (2 = L2 + L1).
    fixed_hardware:
        Optional design constraint enabling the Fixed-HW use case: only the
        mapping is searched.
    area_model / energy_model / bytes_per_element:
        Technology models forwarded to the evaluator.
    buffer_allocation:
        Buffer allocation strategy forwarded to the evaluator
        (``"exact"`` or ``"fill"``).
    use_cache / engine:
        Evaluation-engine knobs forwarded to the evaluator: memoization
        on/off and the vector/fast/reference engine selector (``"vector"``
        by default).  Every combination produces bit-identical results.
    backend:
        Cost-backend selector forwarded to the evaluator (``"analytic"``
        by default; ``"zigzag"`` swaps in the independently coded
        memory-centric model — see :mod:`repro.cost.backend`).
    cache_dir:
        Optional persistent cross-run layer-cache directory forwarded to
        the evaluator (see :class:`~repro.cost.persist.PersistentLayerCache`);
        results are bit-identical with or without it.
    objectives:
        Optional multi-objective axis set for Pareto-front search: an
        :class:`ObjectiveSet`, an iterable of objective names, or a
        comma-separated string (``"latency,energy,area"``).  When given
        (and ``objective`` is left at its default), the set's first
        objective becomes the scalar objective driving fitness, every
        evaluation carries the per-objective vector, and
        :meth:`pareto_search` becomes available.
    """

    def __init__(
        self,
        model: Model,
        platform: Platform,
        objective: Optional[Objective] = None,
        num_levels: int = 2,
        fixed_hardware: Optional[HardwareConfig] = None,
        area_model: Optional[AreaModel] = None,
        energy_model: Optional[EnergyModel] = None,
        bytes_per_element: int = 1,
        buffer_allocation: str = "exact",
        use_cache: bool = True,
        engine: str = "vector",
        objectives: Union[ObjectiveSet, Iterable[str], str, None] = None,
        backend: str = "analytic",
        cache_dir: Optional[str] = None,
    ):
        if objectives is not None and not isinstance(objectives, ObjectiveSet):
            objectives = ObjectiveSet.from_names(objectives)
        if objective is None:
            objective = (
                objectives.primary if objectives is not None else Objective.LATENCY
            )
        self.model = model
        self.platform = platform
        self.objective = objective
        self.objectives = objectives
        self.num_levels = num_levels
        self.evaluator = DesignEvaluator(
            model=model,
            platform=platform,
            objective=objective,
            fixed_hardware=fixed_hardware,
            area_model=area_model,
            energy_model=energy_model,
            bytes_per_element=bytes_per_element,
            buffer_allocation=buffer_allocation,
            use_cache=use_cache,
            engine=engine,
            objectives=objectives,
            backend=backend,
            cache_dir=cache_dir,
        )
        self.space = self.evaluator.genome_space(num_levels=num_levels)
        #: Live checkpoint sessions of in-flight searches.  The sweep
        #: runner closes these when it discards a timed-out framework so a
        #: search still running on an abandoned watchdog thread can no
        #: longer write checkpoints its retry is resuming from.
        self.checkpoint_sessions: List[CheckpointSession] = []

    def close(self) -> None:
        """Close checkpoint sessions, then flush and close the cache tier."""
        for session in self.checkpoint_sessions:
            session.close()
        self.checkpoint_sessions.clear()
        self.evaluator.close()

    def __enter__(self) -> "CoOptimizationFramework":
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self.close()

    def search(
        self,
        optimizer: SupportsRun,
        sampling_budget: int = 2000,
        seed: int = 0,
        *,
        run_label: Optional[str] = None,
        interrupt_check: Optional[Callable[[], bool]] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        checkpoint_key: Optional[str] = None,
    ) -> SearchResult:
        """Run one optimization algorithm under the given sampling budget.

        The optimizer prices designs through the tracker's batched views,
        which never price past the budget, and returns once
        ``tracker.exhausted`` is true or a batch comes back short.

        With ``checkpoint_dir`` set (and an optimizer that declares
        ``supports_checkpoint``), the search writes a crash-safe checkpoint
        every ``checkpoint_every`` generation boundaries under
        ``checkpoint_key`` (derived from model/platform/objective/label/
        budget/seed when omitted), resumes bit-identically from an existing
        checkpoint, and clears it on successful completion.
        ``interrupt_check`` is polled at generation boundaries; when it
        turns truthy the search checkpoints and raises
        :class:`~repro.framework.search.SearchInterrupted`.
        """
        tracker = SearchTracker(
            evaluator=self.evaluator,
            space=self.space,
            sampling_budget=sampling_budget,
        )
        rng = np.random.default_rng(seed)
        session = self._prepare_search(
            tracker,
            rng,
            optimizer,
            run_label=run_label,
            interrupt_check=interrupt_check,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            checkpoint_key=checkpoint_key,
            sampling_budget=sampling_budget,
            seed=seed,
            pareto=False,
        )
        start = time.perf_counter()
        try:
            optimizer.run(tracker, rng)
        finally:
            # SearchInterrupted (and any crash) leaves the checkpoint on
            # disk for the resume; only a *completed* search clears it.
            if session is not None and session in self.checkpoint_sessions:
                self.checkpoint_sessions.remove(session)
        if session is not None:
            session.close()
            session.store.clear()
        elapsed = time.perf_counter() - start
        return SearchResult(
            optimizer_name=optimizer.name,
            best=tracker.best,
            evaluations=tracker.evaluations,
            sampling_budget=sampling_budget,
            wall_time_seconds=elapsed,
            history=tuple(tracker.history),
        )

    def pareto_search(
        self,
        optimizer: SupportsRun,
        sampling_budget: int = 2000,
        seed: int = 0,
        archive_capacity: int = DEFAULT_ARCHIVE_CAPACITY,
        *,
        run_label: Optional[str] = None,
        interrupt_check: Optional[Callable[[], bool]] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        checkpoint_key: Optional[str] = None,
    ) -> ParetoResult:
        """Run one algorithm and return the Pareto front of its evaluations.

        Requires the framework to be built with ``objectives``.  The
        tracker feeds every valid evaluation into a bounded
        :class:`ParetoArchive`, so the returned front reflects everything
        the search priced — any optimizer yields *a* front, though a
        multi-objective algorithm (``"nsga2"``) spreads the budget across
        it instead of converging to the primary objective's optimum.
        """
        if self.objectives is None:
            raise ValueError(
                "pareto_search requires the framework to be constructed "
                "with an ObjectiveSet (objectives=...)"
            )
        tracker = SearchTracker(
            evaluator=self.evaluator,
            space=self.space,
            sampling_budget=sampling_budget,
            archive=ParetoArchive(archive_capacity),
        )
        rng = np.random.default_rng(seed)
        session = self._prepare_search(
            tracker,
            rng,
            optimizer,
            run_label=run_label,
            interrupt_check=interrupt_check,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            checkpoint_key=checkpoint_key,
            sampling_budget=sampling_budget,
            seed=seed,
            pareto=True,
        )
        start = time.perf_counter()
        try:
            optimizer.run(tracker, rng)
        finally:
            if session is not None and session in self.checkpoint_sessions:
                self.checkpoint_sessions.remove(session)
        if session is not None:
            session.close()
            session.store.clear()
        elapsed = time.perf_counter() - start
        return ParetoResult(
            optimizer_name=optimizer.name,
            objectives=self.objectives.objectives,
            front=tuple(tracker.archive.front()),
            evaluations=tracker.evaluations,
            sampling_budget=sampling_budget,
            wall_time_seconds=elapsed,
            batch_calls=tracker.batch_calls,
        )

    # -- checkpoint plumbing -------------------------------------------------

    def _prepare_search(
        self,
        tracker: SearchTracker,
        rng: np.random.Generator,
        optimizer: SupportsRun,
        *,
        run_label: Optional[str],
        interrupt_check: Optional[Callable[[], bool]],
        checkpoint_dir: Optional[str],
        checkpoint_every: int,
        checkpoint_key: Optional[str],
        sampling_budget: int,
        seed: int,
        pareto: bool,
    ) -> Optional[CheckpointSession]:
        """Wire labels/interrupts into the tracker; attach a checkpoint session.

        Returns the session, or None when checkpointing is off or the
        optimizer does not participate in the checkpoint protocol (those
        run fresh on every attempt and observe interrupts only if their
        loop happens to announce generation boundaries).
        """
        label = (
            run_label
            if run_label is not None
            else getattr(optimizer, "name", "search")
        )
        tracker.run_label = label
        tracker.interrupt_check = interrupt_check
        if checkpoint_dir is None or not getattr(
            optimizer, "supports_checkpoint", False
        ):
            return None
        key = checkpoint_key
        if key is None:
            parts = [
                self.model.name,
                self.platform.name,
                self.objective.value,
                label,
                f"b{sampling_budget}",
                f"s{seed}",
            ]
            if pareto:
                axes = ",".join(
                    objective.value for objective in self.objectives.objectives
                )
                parts.insert(3, f"pareto={axes}")
            key = "/".join(parts)
        store = CheckpointStore(checkpoint_dir, key)
        loaded = store.load()
        if loaded is not None:
            restore_search_state(tracker, rng, loaded)
        session = CheckpointSession(store, rng, checkpoint_every)
        tracker.checkpoint_session = session
        self.checkpoint_sessions.append(session)
        return session
