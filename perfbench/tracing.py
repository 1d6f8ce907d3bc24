"""Span tracing and generation timestamps, installed from outside the program.

The benchmark measures the program without changing it: it replaces the
public entry points of each layer with thin wrappers for the duration of
a run and puts the originals back afterwards.  Two recorders exist:

* :class:`GenerationClock` stamps every tracker evaluate call (start and
  end), which is all the untraced run needs for per-generation times;
* :class:`Tracer` keeps one span per wrapped call and accumulates, per
  layer, the call count, the total time and the self time (a span's
  duration minus the time its direct child spans cover).  Parent-to-child
  totals are kept too, so the nesting can be checked.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Tuple

#: (layer, module, class or None for module functions, entry points).
#: Modules, classes and entry points missing from the program are skipped,
#: so the benchmark keeps running when a later change removes one; that
#: layer then reads 0.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    (
        "framework.search",
        "repro.framework.search",
        "SearchTracker",
        ("evaluate_matrix_results", "evaluate_batch_results"),
    ),
    # As bound in the tracker's module: the matrix loops repair with
    # repaired_matrix, the per-genome loops with repaired_copy.
    (
        "encoding.repair",
        "repro.framework.search",
        None,
        ("repaired_matrix", "repaired_copy"),
    ),
    (
        "framework.evaluator",
        "repro.framework.evaluator",
        "DesignEvaluator",
        ("evaluate_matrix", "evaluate_population"),
    ),
    (
        "cost.maestro",
        "repro.cost.maestro",
        "CostModel",
        ("evaluate_model_matrix", "evaluate_model_batch"),
    ),
    (
        "cost.vector_engine",
        "repro.cost.vector_engine",
        "VectorEngine",
        ("evaluate_packed", "evaluate_rows"),
    ),
    ("cost.persist.get", "repro.cost.persist", "PersistentLayerCache", ("get",)),
    ("cost.persist.put", "repro.cost.persist", "PersistentLayerCache", ("put",)),
    (
        "cost.persist.flush",
        "repro.cost.persist",
        "PersistentLayerCache",
        ("flush",),
    ),
    (
        "framework.checkpoint.save",
        "repro.framework.checkpoint",
        "CheckpointStore",
        ("save",),
    ),
)

#: The tracker's batched evaluate calls: one per generation.
EVALUATE_CALLS = ENTRY_POINTS[0]


class Tracer:
    """In-memory span accumulator keyed by layer name."""

    def __init__(self) -> None:
        self._stack: List[list] = []  # open spans: [layer, child ns]
        self.reset()

    def reset(self) -> None:
        """Forget every span recorded so far."""
        self._stack.clear()
        self.calls: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.child_ns: Dict[str, int] = {}
        #: (parent layer, child layer) -> time the child spans covered.
        self.edges: Dict[Tuple[str, str], int] = {}

    def self_ns(self, layer: str) -> int:
        """Total time of ``layer``'s spans minus their direct children."""
        return self.total_ns.get(layer, 0) - self.child_ns.get(layer, 0)

    def wrap(self, layer: str, function):
        """``function`` with every call recorded as a span of ``layer``."""
        stack = self._stack

        @wraps(function)
        def traced(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                self._close(layer, elapsed, frame[1])

        return traced

    def _close(self, layer: str, elapsed: int, children: int) -> None:
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.total_ns[layer] = self.total_ns.get(layer, 0) + elapsed
        self.child_ns[layer] = self.child_ns.get(layer, 0) + children
        if self._stack:
            parent = self._stack[-1]
            parent[1] += elapsed
            edge = (parent[0], layer)
            self.edges[edge] = self.edges.get(edge, 0) + elapsed


class GenerationClock:
    """(start, end) ``perf_counter_ns`` stamps of each tracker evaluate call."""

    def __init__(self) -> None:
        self.marks: List[Tuple[int, int]] = []

    def wrap(self, layer: str, function):
        """``function`` stamped on every call (same signature as
        :meth:`Tracer.wrap`, so :func:`installed` takes either recorder)."""
        marks = self.marks

        @wraps(function)
        def stamped(*args, **kwargs):
            start = perf_counter_ns()
            result = function(*args, **kwargs)
            marks.append((start, perf_counter_ns()))
            return result

        return stamped

    def generation_ns(self) -> List[int]:
        """Wall time of each generation: end of one evaluate call to the next."""
        ends = [end for _, end in self.marks]
        return [later - earlier for earlier, later in zip(ends, ends[1:])]

    def between_ns(self) -> int:
        """Total time outside the evaluate calls, between the first and last."""
        return sum(
            start - end
            for (_, end), (start, _) in zip(self.marks, self.marks[1:])
        )


@contextmanager
def installed(recorder, entry_points=ENTRY_POINTS) -> Iterator[None]:
    """Wrap every existing entry point with ``recorder.wrap``; undo on exit."""
    replaced = []
    try:
        for layer, module_name, class_name, attributes in entry_points:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            owner = module if class_name is None else getattr(module, class_name, None)
            for attribute in attributes if owner is not None else ():
                original = vars(owner).get(attribute)
                if original is None:
                    continue
                setattr(owner, attribute, recorder.wrap(layer, original))
                replaced.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(replaced):
            setattr(owner, attribute, original)
