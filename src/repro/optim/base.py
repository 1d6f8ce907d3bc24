"""Common interface of all optimization algorithms."""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.framework.search import SearchTracker


def checkpoint_generation(
    tracker: SearchTracker, state: Callable[[], Dict[str, Any]]
) -> None:
    """Announce a generation boundary to the tracker, if it supports them.

    Checkpointable loops call this as the first statement of every
    ``while not tracker.exhausted`` iteration, passing a zero-argument
    callable that captures the loop's JSON-able state.  Tracker stubs
    without the hook (plain fitness functions in unit tests) are a no-op.
    """
    hook = getattr(tracker, "checkpoint_generation", None)
    if hook is not None:
        hook(state)


def resume_state(
    tracker: SearchTracker, kind: str
) -> Optional[Dict[str, Any]]:
    """The tracker's restored loop state for this optimizer, or None.

    Consumes ``tracker.resume_state`` (set by a checkpoint restore) after
    validating that the stored ``kind`` matches the running loop — a
    checkpoint taken under one optimizer must never silently seed another.
    """
    state = getattr(tracker, "resume_state", None)
    if state is None:
        return None
    tracker.resume_state = None
    found = state.get("kind")
    if found != kind:
        raise ValueError(
            f"checkpoint holds {found!r} loop state, this loop is {kind!r}"
        )
    return state


class Optimizer(abc.ABC):
    """Base class for optimization algorithms.

    An optimizer spends the tracker's sampling budget through its batched
    views (``tracker.evaluate_matrix``, ``evaluate_matrix_results`` or
    ``evaluate_vector_batch``; a sequential optimizer passes one-row
    batches).  Each view truncates a batch to the remaining budget, so it
    returns fewer results than asked for once the budget runs out, and
    nothing at all after that.  The tracker records the best design point,
    so ``run`` does not return anything.  Implementations stop when
    ``tracker.exhausted`` becomes true or a batch comes back short.
    """

    #: Display name used in experiment tables.
    name: str = "optimizer"

    #: True when the optimizer's loop participates in the checkpoint
    #: protocol (calls :func:`checkpoint_generation` and can consume
    #: :func:`resume_state`).  The framework only creates checkpoint
    #: stores/sessions for optimizers that declare support; others run
    #: fresh on every attempt and observe interrupts at job boundaries.
    supports_checkpoint: bool = False

    @abc.abstractmethod
    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        """Search the design space until the sampling budget is exhausted."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
