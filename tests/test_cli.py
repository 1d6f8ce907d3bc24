"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


class TestModels:
    def test_lists_all_models(self, capsys):
        assert main(["models"]) == 0
        output = capsys.readouterr().out
        for name in ("resnet18", "bert", "dlrm"):
            assert name in output


class TestSearch:
    def test_search_prints_design_and_saves_json(self, capsys, tmp_path):
        output_path = tmp_path / "design.json"
        exit_code = main([
            "search", "--model", "ncf", "--budget", "80",
            "--optimizer", "digamma", "--output", str(output_path),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "DiGamma" in output
        assert "Mapping" in output
        data = json.loads(output_path.read_text())
        assert data["found_valid"] is True

    def test_search_suite_of_models(self, capsys):
        exit_code = main(["search", "--model", "ncf", "dlrm", "--budget", "60"])
        assert exit_code == 0
        assert "latency" in capsys.readouterr().out

    def test_unknown_optimizer_raises(self):
        with pytest.raises(KeyError):
            main(["search", "--model", "ncf", "--optimizer", "bayesopt", "--budget", "5"])

    def test_search_prints_cache_stats(self, capsys):
        exit_code = main(["search", "--model", "ncf", "--budget", "60"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "design cache:" in output
        assert "layer cache:" in output
        assert "evals/s" in output

    def test_search_no_cache_flag(self, capsys):
        exit_code = main(["search", "--model", "ncf", "--budget", "60", "--no-cache"])
        assert exit_code == 0
        assert "cache: disabled" in capsys.readouterr().out

    def test_search_warm_cache_dir_reproduces_fitness(self, capsys, tmp_path):
        # The CI warm-cache gate in miniature: same search twice against
        # one --cache-dir; the second run must answer >= 90% of its layer
        # pricings from the persistent tier and reproduce the best
        # fitness bit-identically.
        stats = []
        for name in ("cold.json", "warm.json"):
            path = tmp_path / name
            exit_code = main([
                "search", "--model", "ncf", "--budget", "60",
                "--optimizer", "random",
                "--cache-dir", str(tmp_path / "cache"),
                "--cache-stats-json", str(path),
            ])
            assert exit_code == 0
            assert "l2 cache:" in capsys.readouterr().out
            stats.append(json.loads(path.read_text()))
        cold, warm = stats
        assert cold["best_fitness"] is not None
        assert warm["best_fitness"] == cold["best_fitness"]
        assert cold["l2"]["writes"] > 0
        assert warm["l2"]["hit_rate"] >= 0.9
        assert warm["l2"]["writes"] == 0

    def test_search_objectives_prints_front_and_saves_json(self, capsys, tmp_path):
        output_path = tmp_path / "front.json"
        exit_code = main([
            "search", "--model", "ncf", "--budget", "80",
            "--optimizer", "nsga2",
            "--objectives", "latency,energy,area",
            "--output", str(output_path),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "NSGA-II[latency,energy,area]" in output
        assert "front of" in output
        data = json.loads(output_path.read_text())
        assert data["objectives"] == ["latency", "energy", "area"]
        assert data["front"]
        assert data["batch_calls"] > 0

    def test_objective_and_objectives_are_mutually_exclusive(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main([
                "search", "--model", "ncf", "--budget", "20",
                "--objective", "energy", "--objectives", "latency,area",
            ])

    def test_search_objectives_with_scalar_optimizer(self, capsys):
        exit_code = main([
            "search", "--model", "ncf", "--budget", "60",
            "--objectives", "latency,area",
        ])
        assert exit_code == 0
        assert "front of" in capsys.readouterr().out

    def test_search_no_cache_flag_parses(self):
        parser = build_parser()
        assert parser.parse_args(["search", "--no-cache"]).no_cache is True
        assert parser.parse_args(["search"]).no_cache is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--workers", "2"],
            ["fig5", "--workers", "2"],
            ["experiments", "--smoke", "--workers", "2"],
        ],
    )
    def test_workers_flag_is_a_usage_error(self, argv, capsys):
        # The in-search process pool is gone; sweeps parallelize by --shard.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err


class TestEvaluate:
    def test_evaluate_dla_on_edge(self, capsys):
        exit_code = main([
            "evaluate", "--model", "ncf", "--dataflow", "dla",
            "--pe-rows", "8", "--pe-cols", "8",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "dla-like" in output
        assert "valid" in output


class TestFigureForwarding:
    def test_fig5_forwarding(self, capsys):
        exit_code = main([
            "fig5", "--platform", "edge", "--budget", "40", "--models", "ncf",
        ])
        assert exit_code == 0
        assert "Fig. 5" in capsys.readouterr().out


class TestParser:
    def test_parser_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["search", "--budget", "0"], "must be >= 1"),
            (["search", "--seed", "-1"], "must be >= 0"),
            (["fig5", "--seed", "-1"], "must be >= 0"),
            (["experiments", "--smoke", "--seed", "-1"], "must be >= 0"),
            (["crosscheck", "--seed", "-1"], "must be >= 0"),
            (["search", "--checkpoint-every", "0"], "must be >= 1"),
            (["experiments", "--smoke", "--checkpoint-every", "0"], "must be >= 1"),
            (["experiments", "--smoke", "--budget", "-3"], "must be >= 1"),
            (["experiments", "--smoke", "--retries", "-1"], "must be >= 0"),
            (["experiments", "--smoke", "--retry-backoff", "-1"], "must be >= 0"),
            (["experiments", "--smoke", "--retry-backoff", "nan"], "must be >= 0"),
            (["experiments", "--smoke", "--job-timeout", "0"], "must be > 0"),
            (["experiments", "--smoke", "--job-timeout", "inf"], "must be finite"),
            (["experiments", "--smoke", "--retry-backoff", "inf"], "must be finite"),
            (["fig5", "--budget", "0"], "must be >= 1"),
            (["evaluate", "--pe-rows", "0"], "must be >= 1"),
            (["evaluate", "--pe-cols", "-1"], "must be >= 1"),
            (["crosscheck", "--designs", "1"], "must be >= 2"),
            (["crosscheck", "--num-levels", "0"], "must be >= 1"),
            (["crosscheck", "--tolerance", "nan"], "must be >= 0"),
            (["crosscheck", "--tolerance", "inf"], "must be finite"),
            (["crosscheck", "--tolerance", "-1"], "must be >= 0"),
            (["crosscheck", "--min-rank-corr", "nan"], "must be >= -1"),
            (["crosscheck", "--min-rank-corr", "inf"], "must be finite"),
            (["crosscheck", "--min-rank-corr=-inf"], "must be >= -1"),
            (["search", "--budget", "many"], "invalid int value"),
            (["experiments", "--smoke", "--job-timeout", "soon"], "invalid float value"),
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["search"])
        assert args.model == ["resnet18"]
        assert args.platform == "edge"
        assert args.budget == 2000
