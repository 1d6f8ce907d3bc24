"""Chaos tests: the fault harness and the runner's reliability layer.

Every failure mode the reliability layer claims to survive is injected here
deterministically: jobs that raise, searches that hang past the watchdog
and stores truncated mid-append.  The headline
acceptance test checks that a faulted-then-resumed sweep converges to the
same successful-record set as a fault-free run.
"""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    SweepAborted,
    parse_fault_plan,
)
from repro.experiments.fig5 import compile_fig5_jobs
from repro.experiments.runner import (
    ResultStore,
    ResultStoreCorruption,
    SweepRunner,
)
from repro.experiments.settings import ExperimentSettings


def tiny_settings(**overrides):
    base = dict(models=("ncf",), sampling_budget=40, seed=0, retry_backoff=0.0)
    base.update(overrides)
    return ExperimentSettings(**base)


def tiny_jobs(optimizers=("random",)):
    return compile_fig5_jobs("edge", tiny_settings(), optimizers)


def canonical_records(path):
    """A faulted run's store, reduced to its reproducible content.

    Keeps the latest record per job id, drops failure records, and strips
    the two legitimately non-deterministic fields (per-search wall time and
    cache-hit statistics, both of which depend on timing, not on what the
    search computed).  Two stores whose canonical forms match contain
    bit-identical search results.
    """
    latest = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # a simulated crash's half-written line
        latest[record["job_id"]] = record
    successes = []
    for record in sorted(latest.values(), key=lambda entry: entry["job_id"]):
        if "result" not in record:
            continue
        record.pop("cache", None)
        record["result"].pop("wall_time_seconds", None)
        successes.append(record)
    return successes


class TestFaultPlanParsing:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.from_json(
            '[{"kind": "raise", "job": 1, "attempt": 2},'
            ' {"kind": "truncate-store", "times": 3}]',
            state_dir=tmp_path,
        )
        rebuilt = FaultPlan.from_json(plan.to_json(), state_dir=tmp_path)
        assert rebuilt.specs == plan.specs
        assert plan.specs[0].job == 1
        assert plan.specs[1].times == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultSpec(kind="explode")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec field"):
            FaultPlan.from_json('[{"kind": "raise", "when": "later"}]')

    def test_non_list_rejected(self):
        with pytest.raises(ValueError, match="JSON list"):
            FaultPlan.from_json('{"kind": "raise"}')

    def test_parse_fault_plan_passes_none_through(self):
        assert parse_fault_plan(None) is None
        assert parse_fault_plan("") is None

    def test_matching_semantics(self):
        by_position = FaultSpec(kind="raise", job=2, attempt=None)
        assert by_position.matches("anything", 2, 5)
        assert not by_position.matches("anything", 1, 5)
        by_substring = FaultSpec(kind="raise", job="cma", attempt=1)
        assert by_substring.matches("ncf-edge-cma-b40-s0", 7, 1)
        assert not by_substring.matches("ncf-edge-cma-b40-s0", 7, 2)
        assert not by_substring.matches("ncf-edge-random-b40-s0", 7, 1)

    def test_raise_fires_through_on_job_start(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(kind="raise", job=0, attempt=1)], state_dir=tmp_path
        )
        with pytest.raises(FaultInjected):
            plan.on_job_start("some-job", 0, 1)
        plan.on_job_start("some-job", 0, 2)  # other attempts unaffected
        plan.on_job_start("other-job", 1, 1)  # other jobs unaffected


class TestGenerationFaults:
    def test_generation_kinds_require_a_generation(self):
        with pytest.raises(ValueError, match="generation"):
            FaultSpec(kind="kill-generation")
        with pytest.raises(ValueError, match="generation"):
            FaultSpec(kind="sigterm")
        with pytest.raises(ValueError, match="generation"):
            FaultSpec(kind="sigterm", generation=0)
        FaultSpec(kind="sigterm", generation=1)  # valid

    def test_from_json_round_trips_generation(self, tmp_path):
        plan = FaultPlan.from_json(
            '[{"kind": "kill-generation", "job": "digamma", "generation": 3}]',
            state_dir=tmp_path,
        )
        rebuilt = FaultPlan.from_json(plan.to_json(), state_dir=tmp_path)
        assert rebuilt.specs == plan.specs
        assert plan.specs[0].generation == 3

    def test_generation_hang_fires_once_at_its_boundary(
        self, tmp_path, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr("repro.experiments.faults.time.sleep", sleeps.append)
        plan = FaultPlan(
            [FaultSpec(kind="hang", job="digamma", generation=2, duration=0.5)],
            state_dir=tmp_path,
        )
        plan.on_generation("ncf-edge-digamma-b40-s0", 1)  # wrong boundary
        plan.on_generation("ncf-edge-random-b40-s0", 2)  # wrong job
        assert sleeps == []
        plan.on_generation("ncf-edge-digamma-b40-s0", 2)
        assert sleeps == [0.5]
        # One-shot: a resumed run re-entering the boundary does not refire.
        plan.on_generation("ncf-edge-digamma-b40-s0", 2)
        assert sleeps == [0.5]

    def test_positional_job_match_never_fires_at_generation(
        self, tmp_path, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr("repro.experiments.faults.time.sleep", sleeps.append)
        plan = FaultPlan(
            [FaultSpec(kind="hang", job=0, generation=1, duration=0.5)],
            state_dir=tmp_path,
        )
        plan.on_generation("anything", 1)
        assert sleeps == []

    def test_generation_hang_skips_job_start(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.experiments.faults.time.sleep", sleeps.append)
        plan = FaultPlan(
            [FaultSpec(kind="hang", generation=3)], state_dir=tmp_path
        )
        plan.on_job_start("job", 0, 1)
        assert sleeps == []


class TestErrorBoundary:
    def test_injected_failure_is_recorded_then_retried_to_success(self, tmp_path):
        jobs = tiny_jobs()
        plan = FaultPlan(
            [FaultSpec(kind="raise", job=0, attempt=1)],
            state_dir=tmp_path / "faults",
        )
        store = ResultStore(tmp_path / "sweep.jsonl")
        outcomes = SweepRunner(
            jobs, settings=tiny_settings(retries=1, fault_plan=plan), store=store
        ).run()
        assert len(outcomes) == 1  # the retry succeeded
        records = store.records()
        assert len(records) == 2
        failed, succeeded = records
        assert failed["status"] == "failed"
        failure = failed["failure"]
        assert set(failure) >= {"job_id", "error", "traceback", "attempt", "elapsed"}
        assert "FaultInjected" in failure["error"]
        assert "FaultInjected" in failure["traceback"]
        assert failure["attempt"] == 1
        assert failure["elapsed"] >= 0
        assert "result" in succeeded and "status" not in succeeded
        assert store.completed_ids() == {jobs[0].job_id}

    def test_exhausted_retries_quarantine_and_the_sweep_continues(self, tmp_path):
        jobs = tiny_jobs(("random", "cma"))
        plan = FaultPlan(
            [FaultSpec(kind="raise", job=0, attempt=None)],
            state_dir=tmp_path / "faults",
        )
        store = ResultStore(tmp_path / "sweep.jsonl")
        progress = []
        outcomes = SweepRunner(
            jobs,
            settings=tiny_settings(retries=1, fault_plan=plan),
            store=store,
            progress=progress.append,
        ).run()
        # The poisoned first job is gone, the healthy second one completed.
        assert [spec.job_id for spec, _ in outcomes] == [jobs[1].job_id]
        statuses = store.statuses()
        assert statuses[jobs[0].job_id] == "quarantined"
        assert statuses[jobs[1].job_id] == "ok"
        assert any("QUARANTINED" in line for line in progress)
        attempts = [
            record["failure"]["attempt"]
            for record in store.records()
            if "failure" in record
        ]
        assert attempts == [1, 2]

    def test_resume_skips_quarantined_jobs(self, tmp_path):
        jobs = tiny_jobs(("random", "cma"))
        plan = FaultPlan(
            [FaultSpec(kind="raise", job=0, attempt=None)],
            state_dir=tmp_path / "faults",
        )
        store = ResultStore(tmp_path / "sweep.jsonl")
        SweepRunner(
            jobs, settings=tiny_settings(retries=0, fault_plan=plan), store=store
        ).run()
        before = len(store.records())
        progress = []
        outcomes = SweepRunner(
            jobs, settings=tiny_settings(), store=store, resume=True,
            progress=progress.append,
        ).run()
        # Nothing re-ran: the quarantined job is skipped, the other reloads.
        assert len(store.records()) == before
        assert any("skip (quarantined)" in line for line in progress)
        assert [spec.job_id for spec, _ in outcomes] == [jobs[1].job_id]

    def test_resume_reruns_retryable_failures(self, tmp_path):
        jobs = tiny_jobs()
        store = ResultStore(tmp_path / "sweep.jsonl")
        # A run that died between recording a retryable failure and its
        # retry leaves a non-quarantined failure as the job's last word.
        store.append_failure(
            jobs[0],
            {"job_id": jobs[0].job_id, "error": "RuntimeError: boom",
             "traceback": "...", "attempt": 1, "elapsed": 0.1},
            quarantined=False,
        )
        assert store.statuses()[jobs[0].job_id] == "failed"
        outcomes = SweepRunner(
            jobs, settings=tiny_settings(), store=store, resume=True
        ).run()
        assert len(outcomes) == 1
        assert store.statuses()[jobs[0].job_id] == "ok"

    def test_backoff_is_exponential_and_deterministically_jittered(
        self, tmp_path, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr(
            "repro.experiments.runner.time.sleep", sleeps.append
        )
        jobs = tiny_jobs()
        plan = FaultPlan(
            [FaultSpec(kind="raise", job=0, attempt=None)],
            state_dir=tmp_path / "faults",
        )
        SweepRunner(
            jobs,
            settings=tiny_settings(
                retries=2, retry_backoff=0.1, fault_plan=plan
            ),
            store=ResultStore(tmp_path / "sweep.jsonl"),
        ).run()
        # Two backoffs (three attempts): bases 0.1 and 0.2, jitter in
        # [1.0, 2.0) — and repeating the run reproduces them exactly.
        assert len(sleeps) == 2
        assert 0.1 <= sleeps[0] < 0.2
        assert 0.2 <= sleeps[1] < 0.4
        repeat = []
        monkeypatch.setattr(
            "repro.experiments.runner.time.sleep", repeat.append
        )
        SweepRunner(
            jobs,
            settings=tiny_settings(
                retries=2, retry_backoff=0.1, fault_plan=plan
            ),
        ).run()
        assert repeat == sleeps


class TestWatchdogTimeout:
    def test_hung_job_times_out_and_is_quarantined(self, tmp_path):
        jobs = tiny_jobs(("random", "cma"))
        plan = FaultPlan(
            [FaultSpec(kind="hang", job=0, attempt=None, duration=5.0)],
            state_dir=tmp_path / "faults",
        )
        store = ResultStore(tmp_path / "sweep.jsonl")
        outcomes = SweepRunner(
            jobs,
            settings=tiny_settings(
                retries=0, job_timeout=0.2, fault_plan=plan
            ),
            store=store,
        ).run()
        # The watchdog cut the hung job off long before its 5s sleep ended
        # and the sweep moved on to the healthy job.
        assert [spec.job_id for spec, _ in outcomes] == [jobs[1].job_id]
        record = next(r for r in store.records() if "failure" in r)
        assert record["status"] == "quarantined"
        assert "JobTimeout" in record["failure"]["error"]
        assert record["failure"]["elapsed"] < 5.0


class TestChaosSweepConvergence:
    def test_faulted_sweep_resumes_to_fault_free_equivalence(self, tmp_path):
        """The acceptance scenario: raise + simulated crash.

        Run 1 hits an injected exception (retried to success) and a store
        truncation that aborts the sweep mid-run.  The resumed run 2
        finishes the remaining jobs.  The canonical successful records
        must equal a fault-free run's — the reliability layer may cost
        time, never results.
        """
        optimizers = ("random", "cma", "digamma")
        jobs = tiny_jobs(optimizers)
        plan = FaultPlan(
            [
                FaultSpec(kind="raise", job=0, attempt=1),
                FaultSpec(kind="truncate-store", job=1, attempt=None, times=1),
            ],
            state_dir=tmp_path / "faults",
        )
        faulted_path = tmp_path / "faulted.jsonl"
        chaos_settings = tiny_settings(retries=2, fault_plan=plan)
        with pytest.raises(SweepAborted):
            SweepRunner(jobs, settings=chaos_settings, store=faulted_path).run()
        # The simulated crash left a half-written line behind.
        report = ResultStore(faulted_path).verify()
        assert not report["ok"]

        # Resume with the same plan: its one-shot faults are spent (the
        # state directory remembers), the attempt-1 raise only matched a
        # job that is already stored, so the sweep runs to completion.
        with pytest.warns(ResultStoreCorruption):
            outcomes = SweepRunner(
                jobs, settings=chaos_settings, store=faulted_path, resume=True
            ).run()
        assert len(outcomes) == len(jobs)

        clean_path = tmp_path / "clean.jsonl"
        SweepRunner(
            jobs, settings=tiny_settings(), store=clean_path
        ).run()
        assert canonical_records(faulted_path) == canonical_records(clean_path)
        assert len(canonical_records(faulted_path)) == len(jobs)

        # The one-shot truncation actually fired: its token is claimed.
        tokens = plan.claimed_tokens()
        assert any(token.startswith("truncate-") for token in tokens)


class TestChaosCLI:
    def test_smoke_sweep_under_fault_plan(self, tmp_path, capsys):
        store_path = tmp_path / "chaos.jsonl"
        exit_code = repro_main([
            "experiments", "--smoke", "--quiet",
            "--store", str(store_path),
            "--retries", "1", "--retry-backoff", "0",
            "--fault-plan",
            '[{"kind": "raise", "job": 0, "attempt": 1},'
            ' {"kind": "raise", "job": 1, "attempt": null}]',
        ])
        # Job 0 retried to success, job 1 quarantined, job 2 untouched —
        # the sweep still exits cleanly (failures are data, not crashes).
        assert exit_code == 0
        statuses = ResultStore(store_path).statuses()
        assert sorted(statuses.values()) == ["ok", "ok", "quarantined"]
        out = capsys.readouterr().out
        assert "pending" in out  # tables withheld: one job has no result

        verify_code = repro_main(
            ["experiments", "--verify-store", str(store_path)]
        )
        assert verify_code == 0  # failure records are well-formed lines
