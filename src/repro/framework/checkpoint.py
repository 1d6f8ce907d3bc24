"""Crash-safe, generation-granular search checkpoints with bit-identical resume.

A long search is all-or-nothing without this module: a preempted worker, a
``--job-timeout`` expiry or a Ctrl-C throws away every priced generation and
the retry restarts from generation zero.  The ingredients for something much
stronger already exist — every optimizer loop is RNG-stream-identical over
the packed gene matrix, and all caches are bit-identical *accelerators*
(dropping them never changes results) — so the complete state
of a search at a generation boundary is small and exact:

* the serialized ``np.random.Generator`` bit-generator state,
* the optimizer's loop state (population rows / DE-PSO float arrays /
  NSGA-II ranking vectors),
* the :class:`~repro.framework.search.SearchTracker` bookkeeping (budget
  counters, best-so-far, convergence history, Pareto archive).

Evaluator memo caches are deliberately **not** captured: restoring into a
fresh process with cold caches is the tested cache-on/off invariance, so
resume stays bit-identical while checkpoints stay small — that is the
"invalidation token" design (the token is the absence of the caches).

A checkpoint is one JSON payload behind a versioned header carrying its
SHA-1 digest.  Saves replace the file atomically and damaged files are
quarantined, both through :mod:`repro.durable`, so a crash mid-save leaves
the previous checkpoint intact.  Loads verify format, version and digest;
anything wrong quarantines the file with a :class:`CheckpointCorruption`
warning and the search starts fresh — a corrupt checkpoint can cost
progress, never correctness.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro import durable
from repro.framework.pareto import ParetoArchive
from repro.serialization import (
    evaluation_result_from_dict,
    evaluation_result_to_dict,
)

#: On-disk format name; a header naming anything else never deserializes.
FORMAT_NAME = "repro-search-checkpoint"

#: Bump on incompatible payload changes; mismatched versions quarantine.
CHECKPOINT_VERSION = 1


class CheckpointCorruption(UserWarning):
    """Warning category for unreadable/damaged checkpoint files."""


# -- RNG state (de)serialization ----------------------------------------------
#
# ``Generator.bit_generator.state`` is a nested dict of plain ints for PCG64
# (the default_rng family) but may carry NumPy arrays for other bit
# generators (MT19937's key vector), so the converter handles both shapes.


def _jsonify(value: Any) -> Any:
    """Recursively convert a bit-generator state dict to JSON-able types."""
    if isinstance(value, dict):
        return {key: _jsonify(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(entry) for entry in value]
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.generic):
        return value.item()
    return value


def _dejsonify(value: Any) -> Any:
    """Inverse of :func:`_jsonify`."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.array(value["__ndarray__"], dtype=value["dtype"])
        return {key: _dejsonify(entry) for key, entry in value.items()}
    if isinstance(value, list):
        return [_dejsonify(entry) for entry in value]
    return value


def rng_state_to_jsonable(rng: np.random.Generator) -> Dict[str, Any]:
    """The generator's complete bit-generator state, JSON-ready."""
    return _jsonify(rng.bit_generator.state)


def restore_rng_state(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    """Set a generator's bit-generator state from its serialized form.

    The bit generator validates the ``bit_generator`` name itself, so a
    checkpoint written under a different RNG family fails loudly here.
    """
    rng.bit_generator.state = _dejsonify(state)


# -- the checkpoint payload ----------------------------------------------------


@dataclass(frozen=True)
class SearchCheckpoint:
    """Complete loop state of a search at one generation boundary.

    ``generation`` is the 1-based boundary the checkpoint was taken at;
    resuming re-enters exactly that boundary (the checkpoint hook is the
    first statement of a loop iteration), so the boundary numbering — and
    with it checkpoint cadence and generation-targeted fault matching — is
    identical between an interrupted and an uninterrupted run.
    """

    generation: int
    rng_state: Dict[str, Any]
    optimizer_state: Dict[str, Any]
    tracker_state: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "generation": self.generation,
            "rng": self.rng_state,
            "optimizer": self.optimizer_state,
            "tracker": self.tracker_state,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SearchCheckpoint":
        return cls(
            generation=int(data["generation"]),
            rng_state=dict(data["rng"]),
            optimizer_state=dict(data["optimizer"]),
            tracker_state=dict(data["tracker"]),
        )


def checkpoint_slug(text: str) -> str:
    """Filename-safe checkpoint key for an arbitrary run label.

    Job ids contain ``/`` and other separator characters; the slug keeps a
    readable prefix and appends a short digest of the *full* label so two
    labels never collide after sanitization.
    """
    safe = re.sub(r"[^A-Za-z0-9._+=-]+", "_", text).strip("_")[:96]
    digest = hashlib.sha1(text.encode()).hexdigest()[:8]
    return f"{safe}-{digest}" if safe else digest


# -- durable storage -----------------------------------------------------------


class CheckpointStore:
    """One checkpoint file: atomic saves, digest-verified loads, quarantine.

    The file holds two lines: a JSON header (``format`` / ``version`` /
    ``digest`` / ``payload_bytes``) and the JSON payload the digest covers.
    Saves go through :func:`repro.durable.replace`, so a reader (or a
    crash) always sees a complete previous or complete new checkpoint,
    never a torn one.
    """

    def __init__(self, directory: Union[str, Path], key: str):
        self.directory = Path(directory)
        self.key = checkpoint_slug(key)
        self.path = self.directory / f"{self.key}.ckpt.json"

    @property
    def corrupt_path(self) -> Path:
        """First quarantine name of a damaged checkpoint (then ``.1``, ...)."""
        return self.path.with_name(self.path.name + ".corrupt")

    def save(self, checkpoint: SearchCheckpoint) -> None:
        """Atomically persist a checkpoint (replaces any previous one)."""
        payload = json.dumps(checkpoint.to_dict(), sort_keys=True).encode()
        header = json.dumps(
            {
                "format": FORMAT_NAME,
                "version": CHECKPOINT_VERSION,
                "digest": hashlib.sha1(payload).hexdigest(),
                "payload_bytes": len(payload),
            },
            sort_keys=True,
        ).encode()
        durable.replace(self.path, header + b"\n" + payload + b"\n")

    def load(self) -> Optional[SearchCheckpoint]:
        """The stored checkpoint, or ``None`` (missing *or* quarantined).

        Every failure mode — torn file, digest mismatch, unknown version,
        malformed JSON — quarantines the file and returns ``None``: the
        caller starts the search fresh, which is always correct, merely
        slower.
        """
        if not self.path.exists():
            return None
        try:
            raw = self.path.read_bytes()
            head, _, rest = raw.partition(b"\n")
            header = json.loads(head)
            if header.get("format") != FORMAT_NAME:
                raise ValueError(f"unknown format {header.get('format')!r}")
            if header.get("version") != CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported version {header.get('version')!r} "
                    f"(expected {CHECKPOINT_VERSION})"
                )
            payload = rest.rstrip(b"\n")
            if len(payload) != int(header["payload_bytes"]):
                raise ValueError(
                    f"payload is {len(payload)} byte(s), header promises "
                    f"{header['payload_bytes']}"
                )
            if hashlib.sha1(payload).hexdigest() != header["digest"]:
                raise ValueError("payload digest mismatch")
            return SearchCheckpoint.from_dict(json.loads(payload))
        except Exception as error:
            self._quarantine(error)
            return None

    def clear(self) -> None:
        """Remove the checkpoint (called when its search completes)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def _quarantine(self, error: Exception) -> None:
        try:
            moved = f"quarantined to {durable.quarantine(self.path, '.corrupt')}"
        except OSError:
            moved = "and could not be quarantined"
        warnings.warn(
            f"{self.path}: unreadable checkpoint ({error}); {moved} — "
            "the search restarts from generation zero",
            CheckpointCorruption,
            stacklevel=3,
        )


# -- the live session a tracker drives -----------------------------------------


class CheckpointSession:
    """Checkpoint writer attached to one running search.

    The tracker calls :meth:`save` at generation boundaries; the session
    applies the ``checkpoint_every`` cadence (interruptions force a save
    regardless) and assembles the full :class:`SearchCheckpoint` from the
    rng, the optimizer's state dict and the tracker's bookkeeping.

    ``close()`` makes every further save a no-op.  The sweep runner closes
    the sessions of a discarded framework so a timed-out search still
    running on its abandoned watchdog thread can no longer touch the
    checkpoint file its retry is resuming from.
    """

    def __init__(
        self,
        store: CheckpointStore,
        rng: np.random.Generator,
        checkpoint_every: int = 1,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.store = store
        self.rng = rng
        self.checkpoint_every = checkpoint_every
        #: Checkpoints written by this session (observability for tests).
        self.saves = 0
        self.closed = False

    def due(self, generation: int) -> bool:
        """True when the cadence calls for a save at this boundary."""
        return generation % self.checkpoint_every == 0

    def save(self, tracker, optimizer_state: Dict[str, Any]) -> None:
        """Capture and persist the search state at the current boundary."""
        if self.closed:
            return
        checkpoint = SearchCheckpoint(
            generation=tracker.generation,
            rng_state=rng_state_to_jsonable(self.rng),
            optimizer_state=dict(optimizer_state),
            tracker_state=snapshot_tracker_state(tracker),
        )
        self.store.save(checkpoint)
        self.saves += 1

    def close(self) -> None:
        """Disarm the session; subsequent saves are ignored."""
        self.closed = True


# -- tracker state (de)serialization -------------------------------------------


def snapshot_tracker_state(tracker) -> Dict[str, Any]:
    """The tracker's complete bookkeeping, JSON-ready and lossless.

    ``best`` uses the full evaluation-result payload (valid *or* invalid —
    an invalid best's graded penalty fitness steers early search), and the
    Pareto archive is captured in insertion order, because eviction
    tie-breaking depends on entry order and must survive the round trip.
    """
    state: Dict[str, Any] = {
        "evaluations": tracker.evaluations,
        "batch_calls": tracker.batch_calls,
        "batched_evaluations": tracker.batched_evaluations,
        "history": [[index, fitness] for index, fitness in tracker.history],
        "best": (
            evaluation_result_to_dict(tracker.best)
            if tracker.best is not None
            else None
        ),
    }
    if tracker.archive is not None:
        state["archive"] = {
            "capacity": tracker.archive.capacity,
            "entries": [
                evaluation_result_to_dict(entry)
                for entry in tracker.archive.entries_in_order()
            ],
        }
    return state


def restore_tracker_state(tracker, state: Dict[str, Any]) -> None:
    """Load :func:`snapshot_tracker_state` output into a fresh tracker."""
    tracker.evaluations = int(state["evaluations"])
    tracker.batch_calls = int(state["batch_calls"])
    tracker.batched_evaluations = int(state["batched_evaluations"])
    tracker.history = [
        (int(index), float(fitness)) for index, fitness in state["history"]
    ]
    best = state.get("best")
    tracker.best = (
        evaluation_result_from_dict(best) if best is not None else None
    )
    archive = state.get("archive")
    if archive is not None and tracker.archive is not None:
        restored = ParetoArchive(int(archive["capacity"]))
        restored.restore_entries(
            evaluation_result_from_dict(entry) for entry in archive["entries"]
        )
        tracker.archive = restored


def restore_search_state(
    tracker, rng: np.random.Generator, checkpoint: SearchCheckpoint
) -> None:
    """Rewind a fresh (tracker, rng) pair to a checkpoint's boundary.

    The generation counter is set one *below* the stored boundary: the
    resumed loop's first statement is the same ``checkpoint_generation``
    call that took the snapshot, which re-increments to the stored value —
    boundary numbering, cadence and fault matching line up exactly with the
    uninterrupted run (and the re-save it triggers writes an identical
    checkpoint).
    """
    restore_rng_state(rng, checkpoint.rng_state)
    restore_tracker_state(tracker, checkpoint.tracker_state)
    tracker.generation = checkpoint.generation - 1
    tracker.resume_state = dict(checkpoint.optimizer_state)
