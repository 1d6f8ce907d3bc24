"""Tests for crash-safe mid-search checkpointing and bit-identical resume."""

from __future__ import annotations

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.arch.platform import EDGE
from repro.framework.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruption,
    CheckpointSession,
    CheckpointStore,
    SearchCheckpoint,
    checkpoint_slug,
    restore_rng_state,
    rng_state_to_jsonable,
)
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.search import SearchInterrupted
from repro.optim.base import resume_state
from repro.optim.registry import get_optimizer
from repro.serialization import evaluation_result_to_dict
from repro.workloads.registry import get_model

#: Enough budget for several generation boundaries on every optimizer
#: (stdGA's default population of 40 is the widest per-generation spend).
BUDGET = 200

#: The single-objective optimizers that participate in the checkpoint
#: protocol (NSGA-II is exercised separately through pareto_search).
RESUMABLE = ("digamma", "stdga", "pso", "de", "random")


class InterruptAfter:
    """Interrupt check that turns truthy after N generation boundaries."""

    def __init__(self, boundaries: int):
        self.boundaries = boundaries
        self.calls = 0

    def __call__(self) -> bool:
        self.calls += 1
        return self.calls > self.boundaries


def make_checkpoint(generation: int = 3) -> SearchCheckpoint:
    rng = np.random.default_rng(0)
    return SearchCheckpoint(
        generation=generation,
        rng_state=rng_state_to_jsonable(rng),
        optimizer_state={"kind": "random"},
        tracker_state={
            "evaluations": 40,
            "batch_calls": 2,
            "batched_evaluations": 40,
            "history": [[1, 5.0], [17, 4.0]],
            "best": None,
        },
    )


def run_search(tiny_model, optimizer_name, *, checkpoint_dir=None,
               interrupt_check=None, checkpoint_every=1, seed=3,
               **framework_kwargs):
    framework = CoOptimizationFramework(tiny_model, EDGE, **framework_kwargs)
    try:
        return framework.search(
            get_optimizer(optimizer_name),
            sampling_budget=BUDGET,
            seed=seed,
            interrupt_check=interrupt_check,
            checkpoint_dir=None if checkpoint_dir is None else str(checkpoint_dir),
            checkpoint_every=checkpoint_every,
        )
    finally:
        framework.close()


def run_pareto(model, *, checkpoint_dir=None, interrupt_check=None,
               **framework_kwargs):
    framework = CoOptimizationFramework(
        model, EDGE, objectives="latency,energy", **framework_kwargs
    )
    try:
        return framework.pareto_search(
            get_optimizer("nsga2"),
            sampling_budget=BUDGET,
            seed=3,
            interrupt_check=interrupt_check,
            checkpoint_dir=None if checkpoint_dir is None else str(checkpoint_dir),
        )
    finally:
        framework.close()


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path, "model/edge/latency/b120/s3")
        original = make_checkpoint()
        store.save(original)
        assert store.path.exists()
        loaded = store.load()
        assert loaded == original

    def test_missing_checkpoint_loads_as_none(self, tmp_path):
        assert CheckpointStore(tmp_path, "nothing-here").load() is None

    def test_clear_removes_the_file(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        store.save(make_checkpoint())
        store.clear()
        assert not store.path.exists()
        store.clear()  # idempotent

    def test_save_replaces_previous_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        store.save(make_checkpoint(generation=1))
        store.save(make_checkpoint(generation=2))
        assert store.load().generation == 2

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: len(raw) - 30],  # torn tail
            lambda raw: raw[:-12] + b"x" + raw[-11:],  # flipped payload byte
            lambda raw: b"not json at all\n",  # garbage
            lambda raw: b"",  # empty file
        ],
    )
    def test_damaged_files_quarantine_and_load_as_none(self, tmp_path, damage):
        store = CheckpointStore(tmp_path, "key")
        store.save(make_checkpoint())
        store.path.write_bytes(damage(store.path.read_bytes()))
        with pytest.warns(CheckpointCorruption):
            assert store.load() is None
        assert not store.path.exists()
        assert store.corrupt_path.exists()

    def test_unknown_version_quarantines(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        store.save(make_checkpoint())
        head, _, payload = store.path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["version"] = CHECKPOINT_VERSION + 1
        store.path.write_bytes(
            json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        )
        with pytest.warns(CheckpointCorruption):
            assert store.load() is None
        assert store.corrupt_path.exists()

    def test_repeated_quarantines_keep_every_copy(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        second = store.corrupt_path.with_name(store.corrupt_path.name + ".1")
        for number, target in enumerate((store.corrupt_path, second)):
            store.path.write_bytes(b"damaged %d\n" % number)
            with pytest.warns(CheckpointCorruption, match=re.escape(str(target))):
                assert store.load() is None
        assert store.corrupt_path.read_bytes() == b"damaged 0\n"
        assert second.read_bytes() == b"damaged 1\n"

    def test_slug_is_filesystem_safe_and_collision_resistant(self):
        a = checkpoint_slug("ncf/edge/latency/DiGamma/b120/s3")
        b = checkpoint_slug("ncf/edge/latency/DiGamma/b120~s3")
        assert "/" not in a and "/" not in b
        assert a != b
        # Long labels truncate readably but stay distinct via the digest.
        long_a = checkpoint_slug("x" * 300 + "a")
        long_b = checkpoint_slug("x" * 300 + "b")
        assert long_a != long_b


class TestRngRoundTrip:
    def test_restored_generator_continues_the_stream(self):
        rng = np.random.default_rng(42)
        rng.random(17)
        state = rng_state_to_jsonable(rng)
        expected = rng.random(8)
        # JSON round trip (the state crosses a file in production).
        state = json.loads(json.dumps(state))
        fresh = np.random.default_rng(0)
        restore_rng_state(fresh, state)
        np.testing.assert_array_equal(fresh.random(8), expected)


class TestCheckpointSession:
    def test_cadence(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        session = CheckpointSession(store, np.random.default_rng(0), 3)
        assert [g for g in range(1, 10) if session.due(g)] == [3, 6, 9]

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        with pytest.raises(ValueError, match="checkpoint_every"):
            CheckpointSession(store, np.random.default_rng(0), 0)

    def test_closed_session_saves_nothing(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        session = CheckpointSession(store, np.random.default_rng(0))
        session.close()
        tracker = SimpleNamespace(
            generation=1, evaluations=0, batch_calls=0, batched_evaluations=0,
            history=[], best=None, archive=None,
        )
        session.save(tracker, {"kind": "random"})
        assert session.saves == 0
        assert not store.path.exists()


class TestResumeStateGuards:
    def test_resume_state_is_consumed_once(self):
        tracker = SimpleNamespace(resume_state={"kind": "random"})
        assert resume_state(tracker, "random") == {"kind": "random"}
        assert tracker.resume_state is None
        assert resume_state(tracker, "random") is None

    def test_kind_mismatch_fails_loudly(self):
        tracker = SimpleNamespace(resume_state={"kind": "de"})
        with pytest.raises(ValueError, match="'de' loop state"):
            resume_state(tracker, "pso")


class TestBitIdenticalResume:
    @pytest.mark.parametrize("num_levels", [2, 3])
    @pytest.mark.parametrize("name", RESUMABLE)
    def test_interrupt_and_resume_matches_uninterrupted_run(
        self, tmp_path, tiny_model, name, num_levels
    ):
        control = run_search(tiny_model, name, num_levels=num_levels)
        with pytest.raises(SearchInterrupted):
            run_search(
                tiny_model, name,
                checkpoint_dir=tmp_path,
                interrupt_check=InterruptAfter(2),
                num_levels=num_levels,
            )
        files = list(tmp_path.glob("*.ckpt.json"))
        assert len(files) == 1
        resumed = run_search(
            tiny_model, name, checkpoint_dir=tmp_path, num_levels=num_levels
        )
        assert resumed.history == control.history
        assert resumed.evaluations == control.evaluations
        assert resumed.best.fitness == control.best.fitness
        # Canonical content comparison: a restored best materializes lazy
        # design wrappers, so compare the serialized payloads, not classes.
        assert evaluation_result_to_dict(resumed.best) == evaluation_result_to_dict(
            control.best
        )
        # A completed search clears its checkpoint.
        assert list(tmp_path.glob("*.ckpt.json")) == []

    def test_resume_from_every_boundary_is_bit_identical(
        self, tmp_path, tiny_model
    ):
        control = run_search(tiny_model, "digamma")
        for boundary in (1, 2, 3, 4):
            ckpt_dir = tmp_path / f"boundary-{boundary}"
            with pytest.raises(SearchInterrupted):
                run_search(
                    tiny_model, "digamma",
                    checkpoint_dir=ckpt_dir,
                    interrupt_check=InterruptAfter(boundary),
                )
            resumed = run_search(tiny_model, "digamma", checkpoint_dir=ckpt_dir)
            assert resumed.history == control.history, boundary
            assert resumed.best.fitness == control.best.fitness, boundary

    def test_sparser_cadence_still_resumes_bit_identically(
        self, tmp_path, tiny_model
    ):
        control = run_search(tiny_model, "stdga")
        with pytest.raises(SearchInterrupted):
            run_search(
                tiny_model, "stdga",
                checkpoint_dir=tmp_path,
                interrupt_check=InterruptAfter(3),
                checkpoint_every=2,
            )
        resumed = run_search(
            tiny_model, "stdga", checkpoint_dir=tmp_path, checkpoint_every=2
        )
        assert resumed.history == control.history
        assert resumed.best.fitness == control.best.fitness

    def test_corrupt_checkpoint_restarts_fresh_never_alters_results(
        self, tmp_path, tiny_model
    ):
        control = run_search(tiny_model, "de")
        with pytest.raises(SearchInterrupted):
            run_search(
                tiny_model, "de",
                checkpoint_dir=tmp_path,
                interrupt_check=InterruptAfter(2),
            )
        (checkpoint,) = tmp_path.glob("*.ckpt.json")
        raw = checkpoint.read_bytes()
        checkpoint.write_bytes(raw[: len(raw) // 2])
        with pytest.warns(CheckpointCorruption):
            resumed = run_search(tiny_model, "de", checkpoint_dir=tmp_path)
        assert resumed.history == control.history
        assert resumed.best.fitness == control.best.fitness
        assert list(tmp_path.glob("*.ckpt.json.corrupt"))

    def test_uninterrupted_checkpointed_run_matches_plain_run(
        self, tmp_path, tiny_model
    ):
        control = run_search(tiny_model, "pso")
        checkpointed = run_search(tiny_model, "pso", checkpoint_dir=tmp_path)
        assert checkpointed.history == control.history
        assert checkpointed.best.fitness == control.best.fitness
        assert list(tmp_path.glob("*.ckpt.json")) == []

    def test_non_checkpoint_optimizer_writes_no_checkpoint(
        self, tmp_path, tiny_model
    ):
        result = run_search(tiny_model, "cma", checkpoint_dir=tmp_path)
        assert result.evaluations == BUDGET
        assert list(tmp_path.iterdir()) == []


class TestScalarEnginesResume:
    """The GA loops checkpoint under every engine: a search interrupted
    under a scalar engine leaves a checkpoint and resumes to the
    uninterrupted trajectory."""

    @pytest.fixture(scope="class")
    def ncf(self):
        return get_model("ncf")

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("name", ["digamma", "stdga"])
    def test_interrupt_and_resume_matches_uninterrupted_run(
        self, tmp_path, ncf, name, engine
    ):
        control = run_search(ncf, name, engine=engine)
        with pytest.raises(SearchInterrupted):
            run_search(
                ncf, name,
                checkpoint_dir=tmp_path,
                interrupt_check=InterruptAfter(2),
                engine=engine,
            )
        assert len(list(tmp_path.glob("*.ckpt.json"))) == 1
        resumed = run_search(ncf, name, checkpoint_dir=tmp_path, engine=engine)
        assert resumed.history == control.history
        assert resumed.evaluations == control.evaluations
        assert resumed.best.fitness == control.best.fitness
        assert list(tmp_path.glob("*.ckpt.json")) == []

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_interrupted_pareto_search_resumes(self, tmp_path, ncf, engine):
        control = run_pareto(ncf, engine=engine)
        with pytest.raises(SearchInterrupted):
            run_pareto(
                ncf,
                checkpoint_dir=tmp_path,
                interrupt_check=InterruptAfter(2),
                engine=engine,
            )
        assert len(list(tmp_path.glob("*.ckpt.json"))) == 1
        resumed = run_pareto(ncf, checkpoint_dir=tmp_path, engine=engine)
        assert resumed.evaluations == control.evaluations
        assert resumed.front_values == control.front_values
        assert list(tmp_path.glob("*.ckpt.json")) == []


class TestParetoResume:
    @pytest.mark.parametrize("num_levels", [2, 3])
    def test_interrupted_pareto_search_resumes_bit_identically(
        self, tmp_path, tiny_model, num_levels
    ):
        control = run_pareto(tiny_model, num_levels=num_levels)
        with pytest.raises(SearchInterrupted):
            run_pareto(
                tiny_model,
                checkpoint_dir=tmp_path,
                interrupt_check=InterruptAfter(2),
                num_levels=num_levels,
            )
        assert list(tmp_path.glob("*.ckpt.json"))
        resumed = run_pareto(
            tiny_model, checkpoint_dir=tmp_path, num_levels=num_levels
        )
        assert resumed.evaluations == control.evaluations
        control_front = [point.objective_vector for point in control.front]
        resumed_front = [point.objective_vector for point in resumed.front]
        assert resumed_front == control_front
        assert list(tmp_path.glob("*.ckpt.json")) == []
