"""Deterministic fault injection for the sweep and evaluation stack.

Reliability code is only trustworthy when every failure path runs in CI, so
this module turns the failure modes a long sweep actually meets — a job
raising, a process preempted or killed mid-search, a search hanging past
its deadline, a store file truncated mid-append by a power cut — into
*deterministic, seedable* fault plans that the runner and search tracker
execute on purpose:

* ``raise`` — an exception thrown inside a job's error boundary.
* ``hang`` — a sleep injected at job start, long enough to trip the
  runner's per-job watchdog timeout.
* ``truncate-store`` — the result store loses the tail of the record it
  just appended and the sweep aborts, simulating a hard crash mid-write.
* ``kill-generation`` — ``os._exit`` at a chosen generation boundary
  *inside* the optimizer loop, simulating preemption mid-search (the
  checkpoint subsystem's reason to exist).
* ``sigterm`` — the process sends itself SIGTERM at a chosen generation
  boundary, driving the runner's graceful-interruption path: checkpoint,
  ``interrupted`` record, non-zero exit, resume.

A plan is a tuple of :class:`FaultSpec` entries plus a filesystem *state
directory*.  Specs that must fire a bounded number of times across several
processes (store truncation, generation-boundary kinds) claim one-shot
token files in that directory with ``O_CREAT | O_EXCL``, so "exactly
``times`` firings" holds even when the claimants are concurrent shards or
a resumed run sharing the same state directory.

Plans are installed through ``ExperimentSettings.fault_plan`` (the sweep
runner forwards them to every framework it builds) or directly on a
:class:`~repro.framework.evaluator.DesignEvaluator` via its ``fault_plan``
attribute; the CLIs accept the JSON form through ``--fault-plan``.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from random import Random
from typing import Iterable, List, Optional, Sequence, Tuple, Union

#: The fault kinds the harness can inject.
FAULT_KINDS = (
    "raise",
    "hang",
    "truncate-store",
    "kill-generation",
    "sigterm",
)

#: Kinds that fire at generation boundaries inside an optimizer loop.
GENERATION_KINDS = ("kill-generation", "sigterm", "hang")


class FaultInjected(RuntimeError):
    """The exception raised by a ``raise`` fault inside a job."""


class SweepAborted(RuntimeError):
    """A simulated hard crash: the runner re-raises this instead of
    retrying, so the whole sweep stops exactly as if the process died."""


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    job:
        Which job(s) the fault applies to: an ``int`` matches the job's
        position in the runner's shard, a ``str`` matches as a substring of
        the ``job_id``, ``None`` matches every job.
    attempt:
        Which attempt the fault fires on (1-based).  ``None`` fires on
        every attempt — a ``raise`` spec with ``attempt=None`` survives all
        retries and drives the job into quarantine.
    times:
        Firing budget of token-claimed kinds (``truncate-store`` and the
        generation-boundary kinds), enforced across processes via the
        plan's state directory.
    duration:
        Sleep length of a ``hang`` fault, seconds.
    truncate_bytes:
        How many bytes ``truncate-store`` removes from the end of the
        store file.  ``None`` picks a value deterministically from the
        plan's seed.
    generation:
        The 1-based generation boundary a ``kill-generation`` / ``sigterm``
        fault fires at (required for those kinds).  A ``hang`` spec with a
        generation set sleeps at that boundary (token-claimed, one-shot
        per ``times``) instead of at job start — the deterministic way to
        outlast ``--job-timeout`` *after* checkpoints exist.  Generation
        firings are one-shot per state directory, so a resumed run passing
        the same boundary does not re-fire them.
    message:
        Human-readable tag carried by the injected exception.
    """

    kind: str
    job: Union[int, str, None] = None
    attempt: Optional[int] = 1
    times: int = 1
    duration: float = 0.25
    truncate_bytes: Optional[int] = 20
    generation: Optional[int] = None
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.attempt is not None and self.attempt < 1:
            raise ValueError(f"attempt must be >= 1 or None, got {self.attempt}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if self.generation is not None and self.generation < 1:
            raise ValueError(
                f"generation must be >= 1 when given, got {self.generation}"
            )
        if self.kind in ("kill-generation", "sigterm") and self.generation is None:
            raise ValueError(
                f"{self.kind!r} faults fire at generation boundaries and "
                "need an explicit 'generation'"
            )

    def matches(self, job_id: str, index: int, attempt: int) -> bool:
        """True when this spec applies to (job, attempt)."""
        if isinstance(self.job, int) and self.job != index:
            return False
        if isinstance(self.job, str) and self.job not in job_id:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        return True


class FaultPlan:
    """A deterministic schedule of faults, shared across processes.

    All cross-process coordination goes through one-shot token files
    under ``state_dir``, so firing counts are exact no matter how many
    shards, retries or resumed runs consult the same plan.
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec],
        state_dir: Union[str, Path, None] = None,
        seed: int = 0,
    ):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        if state_dir is None:
            state_dir = tempfile.mkdtemp(prefix="repro-faults-")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.seed = seed

    # -- (de)serialization --------------------------------------------------

    @classmethod
    def from_json(
        cls,
        text: str,
        state_dir: Union[str, Path, None] = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """Build a plan from a JSON list of spec dicts (the CLI form).

        Example::

            [{"kind": "raise", "job": 1, "attempt": 1},
             {"kind": "truncate-store", "job": 2}]
        """
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError(
                f"fault plan must be a JSON list of spec objects, got {text!r}"
            )
        known = {field.name for field in fields(FaultSpec)}
        specs = []
        for entry in data:
            if not isinstance(entry, dict) or "kind" not in entry:
                raise ValueError(f"each fault spec needs a 'kind', got {entry!r}")
            unknown = set(entry) - known
            if unknown:
                raise ValueError(
                    f"unknown fault spec field(s) {sorted(unknown)}; "
                    f"known fields: {sorted(known)}"
                )
            specs.append(FaultSpec(**entry))
        return cls(specs, state_dir=state_dir, seed=seed)

    def to_json(self) -> str:
        """JSON form of the specs (inverse of :meth:`from_json`)."""
        return json.dumps(
            [
                {
                    field.name: getattr(spec, field.name)
                    for field in fields(FaultSpec)
                }
                for spec in self.specs
            ]
        )

    # -- hooks the instrumented code calls ----------------------------------

    def on_job_start(self, job_id: str, index: int, attempt: int) -> None:
        """Runner hook: fire ``hang`` and ``raise`` faults for this attempt.

        Called inside the watchdog-supervised section, so a ``hang`` that
        outlasts ``--job-timeout`` is observed as a job timeout.
        """
        for spec in self.specs:
            if (
                spec.kind == "hang"
                and spec.generation is None
                and spec.matches(job_id, index, attempt)
            ):
                time.sleep(spec.duration)
        for spec in self.specs:
            if spec.kind == "raise" and spec.matches(job_id, index, attempt):
                raise FaultInjected(
                    f"{spec.message} (job {job_id!r}, attempt {attempt})"
                )

    def on_generation(self, run_label: str, generation: int) -> None:
        """Tracker hook: fire generation-boundary faults for this search.

        Called by :meth:`SearchTracker.checkpoint_generation` at the top of
        every generation — *before* the boundary's checkpoint save, so a
        firing observes the previous boundary's checkpoint, exactly like a
        real preemption.  ``job`` matches as a substring of the run label
        (job id under the sweep runner); positional ``int`` matching is
        meaningless inside a search and never fires.  Every firing claims a
        one-shot token, so a resumed run re-entering the same boundary does
        not re-fire.
        """
        for position, spec in enumerate(self.specs):
            if spec.kind not in GENERATION_KINDS or spec.generation is None:
                continue
            if spec.generation != generation:
                continue
            if isinstance(spec.job, int):
                continue
            if isinstance(spec.job, str) and spec.job not in run_label:
                continue
            for shot in range(spec.times):
                if not self._claim(f"{spec.kind}-gen-{position}-{shot}"):
                    continue
                if spec.kind == "hang":
                    time.sleep(spec.duration)
                elif spec.kind == "kill-generation":
                    os._exit(1)
                else:
                    os.kill(os.getpid(), signal.SIGTERM)
                break

    def after_append(self, path: Union[str, Path], job_id: str,
                     index: int, attempt: int) -> None:
        """Runner hook: truncate the store mid-record and abort the sweep."""
        for position, spec in enumerate(self.specs):
            if spec.kind != "truncate-store":
                continue
            if not spec.matches(job_id, index, attempt):
                continue
            for shot in range(spec.times):
                if not self._claim(f"truncate-{position}-{shot}"):
                    continue
                drop = spec.truncate_bytes
                if drop is None:
                    drop = 5 + self.rng(f"truncate-{position}-{shot}").randrange(26)
                size = os.path.getsize(path)
                os.truncate(path, max(0, size - drop))
                raise SweepAborted(
                    f"{spec.message}: truncated {drop} byte(s) off {path} "
                    f"after job {job_id!r} (simulated crash)"
                )

    # -- internals ----------------------------------------------------------

    def rng(self, label: str) -> Random:
        """A deterministic RNG scoped to (plan seed, label)."""
        return Random(zlib.crc32(label.encode()) ^ self.seed)

    def _claim(self, token: str) -> bool:
        """Atomically claim a one-shot token; True exactly once per token."""
        try:
            os.close(
                os.open(
                    self.state_dir / token,
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                    0o644,
                )
            )
            return True
        except FileExistsError:
            return False

    def claimed_tokens(self) -> List[str]:
        """Tokens claimed so far (observability for tests and debugging)."""
        return sorted(entry.name for entry in self.state_dir.iterdir())


def parse_fault_plan(
    text: Optional[str],
    state_dir: Union[str, Path, None] = None,
    seed: int = 0,
) -> Optional[FaultPlan]:
    """CLI helper: ``--fault-plan`` JSON → plan (``None`` passes through)."""
    if not text:
        return None
    return FaultPlan.from_json(text, state_dir=state_dir, seed=seed)


__all__: Sequence[str] = (
    "FAULT_KINDS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "SweepAborted",
    "parse_fault_plan",
)
