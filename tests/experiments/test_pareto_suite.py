"""Tests for the Pareto experiment suite and its runner/store integration."""

import json

import pytest

from repro.experiments.jobs import JobSpec, job_from_dict, job_to_dict
from repro.experiments.fig5 import compile_fig5_jobs
from repro.experiments.pareto import (
    PARETO_OBJECTIVES,
    compile_pareto_jobs,
    pareto_result_from_outcomes,
)
from repro.experiments.runner import ResultStore, SweepRunner
from repro.experiments.runner import main as experiments_main
from repro.experiments.settings import ExperimentSettings
from repro.framework.pareto import ParetoResult


@pytest.fixture()
def smoke_settings():
    return ExperimentSettings(models=("ncf",), sampling_budget=60, seed=0)


class TestJobSpecObjectives:
    def test_objectives_normalized_and_primary_aligned(self):
        spec = JobSpec(
            model="ncf",
            platform="edge",
            optimizer="nsga2",
            sampling_budget=10,
            objective="energy",  # contradicts the set; the primary wins
            objectives=("latency", "energy", "area"),
        )
        assert spec.objectives == ("latency", "energy", "area")
        assert spec.objective == "latency"
        assert spec.is_multi_objective

    def test_comma_string_accepted(self):
        spec = JobSpec(
            model="ncf",
            platform="edge",
            optimizer="nsga2",
            sampling_budget=10,
            objectives="latency, area",
        )
        assert spec.objectives == ("latency", "area")

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            JobSpec(
                model="ncf",
                platform="edge",
                optimizer="nsga2",
                sampling_budget=10,
                objectives=("latency", "throughput"),
            )

    def test_job_id_encodes_the_axis_set(self):
        spec = JobSpec(
            model="ncf",
            platform="edge",
            optimizer="nsga2",
            sampling_budget=10,
            objectives=("latency", "energy"),
        )
        assert "mo=latency+energy" in spec.job_id
        scalar = JobSpec(
            model="ncf", platform="edge", optimizer="nsga2", sampling_budget=10
        )
        assert "mo=" not in scalar.job_id
        assert spec.job_id != scalar.job_id

    def test_round_trip(self):
        spec = JobSpec(
            model="ncf",
            platform="edge",
            optimizer="nsga2",
            sampling_budget=10,
            objectives=("latency", "energy", "area"),
        )
        rebuilt = job_from_dict(job_to_dict(spec))
        assert rebuilt == spec

    def test_framework_key_distinguishes_axis_sets(self):
        base = dict(
            model="ncf", platform="edge", optimizer="nsga2", sampling_budget=10
        )
        multi = JobSpec(objectives=("latency", "area"), **base)
        scalar = JobSpec(**base)
        assert multi.framework_key != scalar.framework_key


class TestCompile:
    def test_one_job_per_model(self, smoke_settings):
        jobs = compile_pareto_jobs("edge", smoke_settings)
        assert [spec.model for spec in jobs] == ["ncf"]
        spec = jobs[0]
        assert spec.optimizer == "nsga2"
        assert spec.objectives == PARETO_OBJECTIVES
        assert spec.sampling_budget == 60


class TestRunnerIntegration:
    def test_store_round_trip_and_resume(self, smoke_settings, tmp_path):
        store = ResultStore(tmp_path / "pareto.jsonl")
        jobs = compile_pareto_jobs("edge", smoke_settings)
        outcomes = SweepRunner(jobs, settings=smoke_settings, store=store).run()
        assert len(outcomes) == 1
        spec, result = outcomes[0]
        assert isinstance(result, ParetoResult)
        assert result.found_valid and result.is_non_dominated()
        assert result.batch_calls > 0  # batched fast path engaged

        loaded = store.load_results()[spec.job_id]
        assert isinstance(loaded, ParetoResult)
        assert loaded.front_values == result.front_values
        assert loaded.batch_calls == result.batch_calls

        # Resume loads the stored front instead of re-searching.
        resumed = SweepRunner(
            jobs, settings=smoke_settings, store=store, resume=True
        ).run()
        assert resumed[0][1].front_values == result.front_values

        suite = pareto_result_from_outcomes("edge", resumed)
        assert "Pareto front (edge/ncf)" in suite.report()

    def test_cli_smoke_matches_ci_invocation(self, tmp_path, capsys):
        store_path = tmp_path / "pareto-smoke.jsonl"
        exit_code = experiments_main(
            [
                "--suite", "pareto", "--smoke", "--quiet",
                "--store", str(store_path),
            ]
        )
        assert exit_code == 0
        assert "Pareto front (edge/ncf)" in capsys.readouterr().out
        assert experiments_main(["--verify-store", str(store_path)]) == 0
        assert "1 Pareto front(s) checked" in capsys.readouterr().out


class TestVerifyStore:
    """``repro experiments --verify-store`` checks every stored front."""

    def verify(self, path, capsys):
        """Exit code and stdout of ``--verify-store`` on ``path``."""
        exit_code = experiments_main(["--verify-store", str(path)])
        return exit_code, capsys.readouterr().out

    def append_record(self, path, result_payload, job_id="job"):
        record = {"job_id": job_id, "spec": {}, "result": result_payload}
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def base_payload(self, front_values, batch_calls=3):
        return {
            "optimizer": "NSGA-II",
            "objectives": ["latency", "area"],
            "evaluations": 10,
            "sampling_budget": 10,
            "wall_time_seconds": 0.1,
            "batch_calls": batch_calls,
            "batched_evaluations": 10,
            "front": [
                {
                    "design": _design_payload(),
                    "fitness": -vector[0],
                    "objective": "latency",
                    "objective_value": vector[0],
                    "objective_values": list(vector),
                }
                for vector in front_values
            ],
        }

    def test_store_without_fronts_passes_and_says_so(self, tmp_path, capsys):
        # A Pareto smoke that stored no front passes this check; CI counts
        # the store's "front" lines on top.
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        exit_code, out = self.verify(path, capsys)
        assert exit_code == 0
        assert "0 record(s)" in out and "0 Pareto front(s) checked" in out

    def test_scalar_only_store_passes(self, tmp_path, capsys, smoke_settings):
        path = tmp_path / "scalar.jsonl"
        jobs = compile_fig5_jobs("edge", smoke_settings, ("random", "digamma"))
        SweepRunner(jobs, settings=smoke_settings, store=ResultStore(path)).run()
        exit_code, out = self.verify(path, capsys)
        assert exit_code == 0
        assert "2 job(s) ok" in out and "0 Pareto front(s) checked" in out

    def test_dominated_front_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        self.append_record(
            path, self.base_payload([(1.0, 1.0), (2.0, 2.0)]), job_id="dominated"
        )
        exit_code, out = self.verify(path, capsys)
        assert exit_code == 1
        assert "FAIL: dominated: stored front is not non-dominated" in out

    def test_duplicate_front_reported(self, tmp_path, capsys):
        path = tmp_path / "twice.jsonl"
        self.append_record(
            path, self.base_payload([(1.0, 2.0), (1.0, 2.0)]), job_id="twice"
        )
        exit_code, out = self.verify(path, capsys)
        assert exit_code == 1
        assert "FAIL: twice: stored front has duplicate vectors" in out

    def test_empty_front_reported(self, tmp_path, capsys):
        path = tmp_path / "hollow.jsonl"
        self.append_record(path, self.base_payload([]), job_id="hollow")
        exit_code, out = self.verify(path, capsys)
        assert exit_code == 1
        assert "FAIL: hollow: empty front" in out

    def test_dropped_batch_path_reported(self, tmp_path, capsys):
        path = tmp_path / "nobatch.jsonl"
        self.append_record(
            path,
            self.base_payload([(1.0, 2.0), (2.0, 1.0)], batch_calls=0),
            job_id="nobatch",
        )
        exit_code, out = self.verify(path, capsys)
        assert exit_code == 1
        assert "FAIL: nobatch: batch_calls == 0" in out

    def test_clean_store_passes(self, tmp_path, capsys):
        path = tmp_path / "good.jsonl"
        self.append_record(
            path, self.base_payload([(1.0, 2.0), (2.0, 1.0)]), job_id="good"
        )
        exit_code, out = self.verify(path, capsys)
        assert exit_code == 0
        assert "1 Pareto front(s) checked" in out and "FAIL" not in out
        report = ResultStore(path).verify()
        assert report["ok"] and report["fronts"] == 1 and report["problems"] == []


def _design_payload():
    """A minimal serialized design for hand-built store records."""
    return {
        "model": "m",
        "hardware": {
            "pe_array": [2, 2],
            "l1_size": 16,
            "l2_size": 64,
            "noc_bandwidth": 16.0,
            "dram_bandwidth": 4.0,
            "bytes_per_element": 1,
            "frequency_mhz": 1000.0,
        },
        "mapping": {
            "levels": [
                {
                    "spatial_size": 2,
                    "parallel_dim": "K",
                    "order": ["K", "C", "Y", "X", "R", "S"],
                    "tiles": {"K": 1, "C": 1, "Y": 1, "X": 1, "R": 1, "S": 1},
                },
                {
                    "spatial_size": 2,
                    "parallel_dim": "C",
                    "order": ["K", "C", "Y", "X", "R", "S"],
                    "tiles": {"K": 1, "C": 1, "Y": 1, "X": 1, "R": 1, "S": 1},
                },
            ]
        },
        "area": {"pe_area": 100.0, "l1_area": 50.0, "l2_area": 50.0},
        "metrics": {},
        "per_layer": [
            {
                "name": "layer",
                "count": 1,
                "latency_cycles": 1.0,
                "compute_cycles": 1.0,
                "noc_cycles": 0.0,
                "dram_cycles": 0.0,
                "macs": 1,
                "l2_to_l1_bytes": 1.0,
                "dram_bytes": 1.0,
                "l1_access_bytes": 1.0,
                "energy": 1.0,
                "active_pes": 4,
                "num_pes": 4,
                "l1_requirement_bytes": 1,
                "l2_requirement_bytes": 1,
            }
        ],
    }
