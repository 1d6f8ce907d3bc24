"""The ``repro crosscheck`` cross-backend agreement gate."""

from __future__ import annotations

import io

import pytest

from repro.experiments.crosscheck import main, run_crosscheck


class TestRunCrosscheck:
    @pytest.mark.parametrize("num_levels", [1, 2, 3])
    def test_backends_agree_within_documented_tolerance(self, num_levels):
        out = io.StringIO()
        code = run_crosscheck(
            model_name="ncf",
            designs=100,
            num_levels=num_levels,
            seed=0,
            out=out,
        )
        report = out.getvalue()
        assert code == 0, report
        assert "crosscheck OK" in report
        assert "area" in report and "latency" in report and "energy" in report

    def test_zero_tolerance_fails_and_names_the_gate(self):
        out = io.StringIO()
        code = run_crosscheck(
            model_name="ncf", designs=40, tolerance=0.0, out=out
        )
        report = out.getvalue()
        assert code == 1
        assert "crosscheck FAILED" in report
        assert "latency: median relative delta" in report

    def test_impossible_rank_corr_fails(self):
        out = io.StringIO()
        code = run_crosscheck(
            model_name="ncf", designs=40, min_rank_corr=1.1, out=out
        )
        assert code == 1
        assert "rank correlation" in out.getvalue()

    def test_tiny_sample_rejected(self):
        with pytest.raises(ValueError, match="designs must be >= 2"):
            run_crosscheck(designs=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_crosscheck(seed=-1)

    @pytest.mark.parametrize(
        "gate",
        [
            {"tolerance": float("nan")},
            {"tolerance": float("inf")},
            {"min_rank_corr": float("nan")},
            {"min_rank_corr": float("-inf")},
        ],
    )
    def test_non_finite_gate_rejected(self, gate):
        with pytest.raises(ValueError, match="gates must be finite"):
            run_crosscheck(model_name="ncf", designs=20, **gate)


class TestCli:
    def test_main_runs_the_gate(self, capsys):
        code = main(["--model", "ncf", "--designs", "24", "--seed", "1"])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert "crosscheck OK" in captured

    def test_reachable_through_the_repro_cli(self, capsys):
        from repro.__main__ import main as repro_main

        code = repro_main(
            ["crosscheck", "--model", "ncf", "--designs", "24"]
        )
        assert code == 0
        assert "crosscheck OK" in capsys.readouterr().out
