"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------

``models``
    List the built-in DNN workloads with layer and MAC counts.
``search``
    Co-optimize HW and mapping for one model (or a suite) and optionally
    save the best design as JSON.
``evaluate``
    Evaluate a fixed dataflow template on a model with a given PE array —
    a search-free sanity check of the cost model.
``fig5`` / ``fig6`` / ``fig7`` / ``ablations`` / ``pareto``
    Regenerate one of the paper's figures, the ablations or the
    multi-objective Pareto-front suite (one NSGA-II search per model):
    ``repro <figure> ARGS`` is ``repro experiments ARGS --suite <figure>``.
``experiments``
    The unified sweep runner: compile figure suites (or custom grids) into
    jobs, stream results to a JSONL store, ``--resume`` interrupted sweeps
    and split them with ``--shard i/N``.  Jobs run inside a per-job error
    boundary with retries (``--retries``, ``--retry-backoff``), a watchdog
    timeout (``--job-timeout``) and poison-job quarantine; stores can be
    integrity-checked (``--verify-store``), cleaned (``--repair-store``)
    and summarised (``--status``); ``--verify-store`` also checks every
    stored Pareto front.  ``--checkpoint-dir`` makes killed or
    interrupted searches resume bit-identically mid-search, and
    ``--fault-plan`` injects deterministic chaos for testing.
``crosscheck``
    Cross-backend agreement check: price one design sample on both the
    analytic and the zigzag cost backend and gate their per-objective
    deltas against the documented tolerance (exit 1 on disagreement).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import pareto_front_report
from repro.arch.platform import get_platform
from repro.experiments import runner as runner_module
from repro.experiments.runner import bounded, positive_int
from repro.cost.backend import BACKENDS
from repro.experiments import crosscheck as crosscheck_module
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.evaluator import ENGINES
from repro.framework.objective import Objective, ObjectiveSet
from repro.mapping.dataflows import DATAFLOW_STYLES, get_dataflow
from repro.optim.registry import available_optimizers, get_optimizer
from repro.serialization import pareto_result_to_dict, save_json, search_result_to_dict
from repro.workloads.registry import available_models, get_model
from repro.workloads.suite import ModelSuite

#: Figure subcommands: ``repro <figure> ARGS`` runs
#: ``repro experiments ARGS --suite <figure>``.
FIGURES = ("fig5", "fig6", "fig7", "ablations", "pareto")


def _cmd_models(_: argparse.Namespace) -> int:
    print(f"{'model':<16} {'layers':>7} {'unique':>7} {'GMACs':>8}")
    print("-" * 42)
    for name in available_models():
        model = get_model(name)
        print(f"{name:<16} {len(model.layers):>7d} {len(model.unique_layers()):>7d} "
              f"{model.total_macs / 1e9:>8.2f}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if len(args.model) == 1:
        model = get_model(args.model[0])
    else:
        model = ModelSuite.from_names("suite", args.model).as_model()
    platform = get_platform(args.platform)
    if args.objectives:
        if args.objective is not None:
            raise SystemExit(
                "search: --objective and --objectives are mutually exclusive; "
                "the first entry of --objectives is the primary objective"
            )
        return _run_pareto_search(args, model, platform)
    framework = CoOptimizationFramework(
        model,
        platform,
        objective=Objective.from_name(args.objective or "latency"),
        use_cache=not args.no_cache,
        engine=args.engine,
        backend=args.backend,
        cache_dir=args.cache_dir,
    )
    optimizer = get_optimizer(args.optimizer)
    try:
        result = framework.search(
            optimizer,
            sampling_budget=args.budget,
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
    finally:
        framework.close()
    print(result.summary())
    _print_cache_stats(framework)
    if args.cache_stats_json:
        best = result.best.fitness if result.found_valid else None
        _write_cache_stats_json(framework, best, args.cache_stats_json)
    if result.found_valid:
        print()
        print(result.best.design.describe())
        if args.output:
            path = save_json(search_result_to_dict(result), args.output)
            print(f"\nSaved search result to {path}")
    return 0 if result.found_valid else 1


def _run_pareto_search(args: argparse.Namespace, model, platform) -> int:
    """The multi-objective branch of ``repro search`` (--objectives)."""
    framework = CoOptimizationFramework(
        model,
        platform,
        objectives=ObjectiveSet.from_names(args.objectives),
        use_cache=not args.no_cache,
        engine=args.engine,
        backend=args.backend,
        cache_dir=args.cache_dir,
    )
    optimizer = get_optimizer(args.optimizer)
    try:
        result = framework.pareto_search(
            optimizer,
            sampling_budget=args.budget,
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
    finally:
        framework.close()
    print(result.summary())
    _print_cache_stats(framework)
    if args.cache_stats_json:
        front = result.front
        best = max(point.fitness for point in front) if front else None
        _write_cache_stats_json(framework, best, args.cache_stats_json)
    if result.found_valid:
        print()
        print(pareto_front_report(result))
        if args.output:
            path = save_json(pareto_result_to_dict(result), args.output)
            print(f"\nSaved Pareto front to {path}")
    return 0 if result.found_valid else 1


def _print_cache_stats(framework: CoOptimizationFramework) -> None:
    """Report evaluation-cache efficiency of one finished search run."""
    evaluator = framework.evaluator
    if not evaluator.use_cache:
        print("evaluation cache: disabled (--no-cache)")
        return
    print(f"design cache: {evaluator.design_cache_stats.summary()}")
    print(f"layer cache:  {evaluator.layer_cache_stats.summary()}")
    tier = evaluator.persistent_cache
    if tier is not None:
        counters = tier.counters()
        requests = counters["l2_hits"] + counters["l2_misses"]
        rate = counters["l2_hits"] / requests if requests else 0.0
        print(
            "l2 cache:     "
            f"{counters['l2_hits']}/{requests} hits ({rate:.1%}), "
            f"{counters['l2_writes']} writes, "
            f"{tier.entries} entries on disk"
        )


def _write_cache_stats_json(
    framework: CoOptimizationFramework,
    best_fitness: Optional[float],
    path: str,
) -> None:
    """Save machine-readable cache statistics for one finished search.

    The CI warm-cache gate runs the same search twice against one
    ``--cache-dir`` and compares these files: the second run must answer
    its layer pricings from the persistent tier (``l2.hit_rate``) while
    reproducing the first run's ``best_fitness`` bit-identically.
    """
    evaluator = framework.evaluator
    record: dict = {
        "best_fitness": best_fitness,
        "l1": {
            "design": {
                "hits": evaluator.design_cache_stats.hits,
                "misses": evaluator.design_cache_stats.misses,
            },
            "layer": {
                "hits": evaluator.layer_cache_stats.hits,
                "misses": evaluator.layer_cache_stats.misses,
            },
        },
    }
    tier = evaluator.persistent_cache
    record["l2"] = tier.stats() if tier is not None else None
    out = save_json(record, path)
    print(f"Saved cache statistics to {out}")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = get_model(args.model)
    platform = get_platform(args.platform)
    framework = CoOptimizationFramework(model, platform)
    template = get_dataflow(args.dataflow)
    pe_array = (args.pe_rows, args.pe_cols)
    evaluation = framework.evaluator.evaluate_mapping(
        lambda layer: template(layer, pe_array), pe_array=pe_array
    )
    status = "valid" if evaluation.valid else "INVALID (over budget)"
    print(f"{args.dataflow}-like on {args.pe_rows}x{args.pe_cols} PEs "
          f"({platform.name}): {status}")
    print(evaluation.design.describe())
    return 0 if evaluation.valid else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("models", help="list built-in DNN workloads")

    search = subparsers.add_parser("search", help="co-optimize HW and mapping")
    search.add_argument("--model", nargs="+", default=["resnet18"],
                        help="model name(s); several names form a suite")
    search.add_argument("--platform", choices=("edge", "cloud"), default="edge")
    search.add_argument("--optimizer", default="digamma",
                        help=f"one of {available_optimizers()}")
    search.add_argument("--objective", default=None,
                        choices=[objective.value for objective in Objective],
                        help="scalar objective to minimize (default: latency; "
                             "mutually exclusive with --objectives)")
    search.add_argument("--objectives", default=None,
                        help="comma-separated objective axes (e.g. "
                             "'latency,energy,area'); switches to "
                             "multi-objective Pareto-front search — pair "
                             "with --optimizer nsga2 for a spread front")
    search.add_argument("--budget", type=positive_int, default=2000, help="sampling budget")
    search.add_argument("--seed", type=bounded(int, 0), default=0)
    search.add_argument("--output", default=None,
                        help="optional path for the JSON result")
    search.add_argument("--engine", choices=ENGINES,
                        default="vector",
                        help="evaluation engine (bit-identical results; "
                             "'vector' batches whole populations through "
                             "NumPy, 'fast' is the scalar engine, "
                             "'reference' the seed implementation)")
    search.add_argument("--backend", choices=BACKENDS,
                        default="analytic",
                        help="cost backend: 'analytic' (the paper's "
                             "MAESTRO-style order-aware model, default) or "
                             "'zigzag' (independently coded memory-centric "
                             "model); backends compute different costs")
    search.add_argument("--no-cache", action="store_true",
                        help="disable evaluation memoization (results are "
                             "bit-identical either way)")
    search.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent cross-run layer-cache directory; "
                             "warm reruns answer repeat layer pricings from "
                             "disk with bit-identical results (see "
                             "repro.cost.persist)")
    search.add_argument("--cache-stats-json", default=None, metavar="PATH",
                        help="save best fitness plus L1/L2 cache counters "
                             "as JSON (used by the CI warm-cache gate)")
    search.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="mid-search checkpoint directory; a killed or "
                             "interrupted search resumes bit-identically "
                             "from its last completed generation on re-run "
                             "(see repro.framework.checkpoint)")
    search.add_argument("--checkpoint-every", type=positive_int, default=1, metavar="N",
                        help="save a checkpoint every N generation "
                             "boundaries (default: 1)")

    evaluate = subparsers.add_parser(
        "evaluate", help="evaluate a fixed dataflow on a model"
    )
    evaluate.add_argument("--model", default="resnet18")
    evaluate.add_argument("--platform", choices=("edge", "cloud"), default="edge")
    evaluate.add_argument("--dataflow", choices=DATAFLOW_STYLES, default="dla")
    evaluate.add_argument("--pe-rows", type=positive_int, default=16)
    evaluate.add_argument("--pe-cols", type=positive_int, default=16)

    for name in FIGURES + ("experiments", "crosscheck"):
        subparsers.add_parser(name, add_help=False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] in FIGURES:
        # argparse keeps the last --suite, so the alias's own suite wins.
        argv = ["experiments", *argv[1:], "--suite", argv[0]]
    # These subcommands parse their remaining arguments themselves.
    forwarding = {"experiments": runner_module.main, "crosscheck": crosscheck_module.main}
    if argv and argv[0] in forwarding:
        return forwarding[argv[0]](argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "models": _cmd_models,
        "search": _cmd_search,
        "evaluate": _cmd_evaluate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
