"""Record evaluation-engine performance into ``BENCH_cost_model.json``.

Measures, on this machine:

* single-layer cost-model latency (fast engine vs the seed reference), and
* end-to-end DiGamma search throughput on ``resnet18`` / edge — the
  gene-matrix population data path, the scalar engines with and without
  memoization, and the seed reference path — reporting the speedups the
  repository's perf work must not regress, and
* cold-vs-warm search throughput over a persistent cache directory
  (``repro.cost.persist``), with the counter-verified warm L2 hit rate.

The medians of several interleaved repetitions are written to
``BENCH_cost_model.json`` at the repository root so the performance
trajectory is tracked across PRs.  Run with::

    PYTHONPATH=src python benchmarks/perf_tracking.py [--budget N] [--reps N]
"""

from __future__ import annotations

import argparse
import json
import platform as platform_module
import time
from pathlib import Path

from repro.arch.platform import get_platform
from repro.cost.maestro import CostModel
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.mapping.dataflows import dla_like
from repro.optim.registry import get_optimizer
from repro.workloads.layer import Layer
from repro.workloads.registry import get_model

SEARCH_CONFIGS = {
    #: The default data path: gene-matrix search loops on top of the NumPy
    #: population engine.
    "vector_cached": {},
    "fast_cached": {"engine": "fast"},
    "fast_uncached": {"engine": "fast", "use_cache": False},
    "reference": {"engine": "reference", "use_cache": False},
}

#: The fast-cached evals/s recorded by the PR that introduced the scalar
#: fast path (BENCH_cost_model.json as of that PR, same machine class).
#: The vector engine's acceptance bar is >= 2x this number.
PR1_FAST_CACHED_EVALS_PER_SECOND = 3804.4


def bench_layer_eval(repeats: int = 2000) -> dict:
    """Best-case single-layer evaluation latency (microseconds).

    The minimum over several timing windows is the standard low-noise
    estimator (machine noise is one-sided: runs only ever get slower).
    """
    layer = Layer.conv2d("resnet_block", 256, 256, 14, 3)
    mapping = dla_like(layer, (16, 16))
    timings = {}
    for name, model in (
        ("fast", CostModel(cache_size=0)),
        ("reference", CostModel(engine="reference")),
    ):
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(repeats):
                model.evaluate_layer(layer, mapping, 64.0, 16.0)
            samples.append((time.perf_counter() - start) / repeats * 1e6)
        timings[name] = round(min(samples), 3)
    timings["speedup"] = round(timings["reference"] / timings["fast"], 2)
    return timings


def bench_search_throughput(budget: int, reps: int, seed: int = 0) -> dict:
    """Peak evals/sec of a DiGamma search on resnet18/edge per engine config.

    Configurations are interleaved so machine-noise windows hit them evenly,
    and the best of ``reps`` runs is reported (min-time estimator).
    """
    model = get_model("resnet18")
    samples = {name: [] for name in SEARCH_CONFIGS}
    fitness = {}
    names = list(SEARCH_CONFIGS)
    for rep in range(reps):
        # Rotate the order every repetition: a fixed order systematically
        # penalises whichever config follows the multi-second reference
        # run (clock/thermal state), skewing best-of comparisons between
        # the fast configurations.
        rotation = names[rep % len(names) :] + names[: rep % len(names)]
        for name in rotation:
            kwargs = SEARCH_CONFIGS[name]
            framework = CoOptimizationFramework(
                model, get_platform("edge"), **kwargs
            )
            start = time.perf_counter()
            result = framework.search(
                get_optimizer("digamma"), sampling_budget=budget, seed=seed
            )
            elapsed = time.perf_counter() - start
            samples[name].append(result.evaluations / elapsed)
            fitness[name] = result.best.fitness if result.best else None
    throughput = {
        name: round(max(values), 1) for name, values in samples.items()
    }
    assert len(set(fitness.values())) == 1, (
        f"engine configurations disagree on the search outcome: {fitness}"
    )
    from repro.optim.digamma.algorithm import DiGammaHyperParameters

    return {
        "budget": budget,
        "reps": reps,
        "population": DiGammaHyperParameters().resolved_population(budget),
        "evals_per_second": throughput,
        "speedup_vector_vs_fast_cached": round(
            throughput["vector_cached"] / throughput["fast_cached"], 2
        ),
        "speedup_vector_vs_pr1_fast_cached": round(
            throughput["vector_cached"] / PR1_FAST_CACHED_EVALS_PER_SECOND, 2
        ),
        "speedup_vector_vs_reference": round(
            throughput["vector_cached"] / throughput["reference"], 2
        ),
        "speedup_cached_vs_reference": round(
            throughput["fast_cached"] / throughput["reference"], 2
        ),
        "speedup_uncached_vs_reference": round(
            throughput["fast_uncached"] / throughput["reference"], 2
        ),
        "best_fitness": fitness["vector_cached"],
    }


def bench_three_level(budget: int, reps: int, seed: int = 0) -> dict:
    """Three-level hierarchy search throughput: vector path vs scalar engine.

    Before the depth-generalized vector engine, three-level searches fell
    off the vector path onto the ~20x-slower scalar fallback; this
    benchmark records the vectorized three-level throughput
    (``three_level_cached``) next to the scalar fast engine on the same
    search (the old fallback's data path) and the uncached reference
    engine (the seed scalar implementation the "20x" is measured
    against), and asserts the depth actually rides the vector path (rows
    vectorized, none falling back) with a bit-identical outcome
    across all three engines.
    """
    model = get_model("resnet18")
    configs = {
        "three_level_cached": {},
        "three_level_fast_cached": {"engine": "fast"},
        "three_level_reference": {"engine": "reference", "use_cache": False},
    }
    samples = {name: [] for name in configs}
    fitness = {}
    names = list(configs)
    for rep in range(reps):
        rotation = names[rep % len(names) :] + names[: rep % len(names)]
        for name in rotation:
            framework = CoOptimizationFramework(
                model, get_platform("edge"), num_levels=3, **configs[name]
            )
            start = time.perf_counter()
            result = framework.search(
                get_optimizer("digamma"), sampling_budget=budget, seed=seed
            )
            elapsed = time.perf_counter() - start
            samples[name].append(result.evaluations / elapsed)
            fitness[name] = result.best.fitness if result.best else None
            if name == "three_level_cached":
                stats = framework.evaluator.cost_model.vector_stats
                assert stats["rows_vectorized"] > 0, stats
                assert stats["rows_fallback"] == 0, stats
    throughput = {
        name: round(max(values), 1) for name, values in samples.items()
    }
    assert len(set(fitness.values())) == 1, (
        f"engines disagree on the three-level search outcome: {fitness}"
    )
    return {
        "budget": budget,
        "reps": reps,
        "evals_per_second": throughput,
        "speedup_vector_vs_fast": round(
            throughput["three_level_cached"]
            / throughput["three_level_fast_cached"],
            2,
        ),
        "speedup_vector_vs_reference": round(
            throughput["three_level_cached"]
            / throughput["three_level_reference"],
            2,
        ),
        "best_fitness": fitness["three_level_cached"],
    }


def bench_warm_cache(budget: int, reps: int, seed: int = 0) -> dict:
    """Cold vs warm search throughput over a persistent cache directory.

    Each repetition runs the default data path twice against one fresh
    ``cache_dir``: cold (every layer row priced by the engine and written
    back) then warm (rows answered from the on-disk tier).  The warm L2
    hit rate is counter-verified — never inferred from timing — and both
    phases must land on a bit-identical best fitness: the persistent
    cache is an accelerator, not an oracle allowed to change results.
    """
    import shutil
    import tempfile

    model = get_model("resnet18")
    samples = {"cold": [], "warm": []}
    fitness = {}
    hit_rate = 0.0
    scratch = Path(tempfile.mkdtemp(prefix="repro-warm-bench-"))
    try:
        for rep in range(reps):
            cache_dir = scratch / f"rep{rep}"
            for phase in ("cold", "warm"):
                framework = CoOptimizationFramework(
                    model, get_platform("edge"), cache_dir=str(cache_dir)
                )
                try:
                    start = time.perf_counter()
                    result = framework.search(
                        get_optimizer("digamma"), sampling_budget=budget, seed=seed
                    )
                    elapsed = time.perf_counter() - start
                    counters = framework.evaluator.persistent_cache.counters()
                finally:
                    framework.close()
                samples[phase].append(result.evaluations / elapsed)
                fitness[phase] = result.best.fitness if result.best else None
                if phase == "warm":
                    requests = counters["l2_hits"] + counters["l2_misses"]
                    hit_rate = counters["l2_hits"] / max(1, requests)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert fitness["cold"] == fitness["warm"], (
        f"warm rerun changed the search outcome: {fitness}"
    )
    throughput = {
        name: round(max(values), 1) for name, values in samples.items()
    }
    return {
        "budget": budget,
        "reps": reps,
        "evals_per_second": throughput,
        "warm_l2_hit_rate": round(hit_rate, 4),
        "speedup_warm_vs_cold": round(
            throughput["warm"] / throughput["cold"], 2
        ),
        "best_fitness": fitness["warm"],
    }


def _measure_throughput(budget: int, reps: int, **framework_kwargs) -> float:
    """Best-of-``reps`` evals/s of a DiGamma search (min-time estimator)."""
    model = get_model("resnet18")
    measured = 0.0
    for _ in range(reps):
        framework = CoOptimizationFramework(
            model, get_platform("edge"), **framework_kwargs
        )
        start = time.perf_counter()
        result = framework.search(
            get_optimizer("digamma"), sampling_budget=budget, seed=0
        )
        elapsed = time.perf_counter() - start
        measured = max(measured, result.evaluations / elapsed)
    return measured


def check_regression(
    baseline_path: str,
    tolerance: float,
    reps: int,
    output: str | None = None,
    budget: int | None = None,
    relative: bool = False,
) -> int:
    """Benchmark-regression gate against the recorded baseline.

    Absolute mode (default): re-measures the ``vector_cached`` end-to-end
    search throughput (the default data path: gene-matrix loops on the
    vector engine, best of ``reps`` runs) and fails when it regresses more
    than ``tolerance`` below the evals/s recorded in
    ``BENCH_cost_model.json``.  The committed baseline is
    machine-specific, so this mode only makes sense on the machine class
    that recorded it.

    Relative mode (``--relative``): additionally measures the scalar
    ``fast_cached`` configuration on the *same* machine in the same run
    and gates the vector/fast speedup ratio against the baseline's
    recorded ``speedup_vector_vs_fast_cached``.  The ratio is
    machine-independent, which is what hosted CI runners need — a slower
    runner scales both measurements, but the matrix data path silently
    degrading to scalar evaluation still collapses the ratio to ~1x.

    The measurement payload is written to ``output`` (when given) so CI
    can upload it as an artifact next to the committed baseline.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    search_throughput = baseline["search_throughput"]
    gated = "vector_cached"
    recorded = search_throughput["evals_per_second"][gated]
    if budget is None:
        budget = int(search_throughput["budget"])
    measured = _measure_throughput(budget, reps)
    payload = {
        "benchmark": f"{gated} regression gate",
        "machine": {
            "python": platform_module.python_version(),
            "platform": platform_module.platform(),
        },
        "baseline_path": str(baseline_path),
        "mode": "relative" if relative else "absolute",
        "budget": budget,
        "reps": reps,
        "gated_configuration": gated,
        "recorded_evals_per_second": recorded,
        "measured_evals_per_second": round(measured, 1),
        "tolerance": tolerance,
    }
    if relative:
        recorded_ratio = search_throughput["speedup_vector_vs_fast_cached"]
        fast_measured = _measure_throughput(budget, reps, engine="fast")
        measured_ratio = measured / fast_measured
        floor = recorded_ratio * (1.0 - tolerance)
        passed = measured_ratio >= floor
        payload.update(
            {
                "measured_fast_cached_evals_per_second": round(fast_measured, 1),
                "recorded_speedup_vs_fast_cached": recorded_ratio,
                "measured_speedup_vs_fast_cached": round(measured_ratio, 2),
                "floor_speedup": round(floor, 2),
                "passed": passed,
            }
        )
        subject = (
            f"{gated}/fast speedup {measured_ratio:.2f}x vs floor {floor:.2f}x "
            f"({recorded_ratio:.2f}x recorded, tolerance {tolerance:.0%})"
        )
    else:
        floor = recorded * (1.0 - tolerance)
        passed = measured >= floor
        payload.update(
            {
                "floor_evals_per_second": round(floor, 1),
                "passed": passed,
            }
        )
        subject = (
            f"{gated} {measured:.1f} evals/s vs floor {floor:.1f} "
            f"({recorded:.1f} recorded, tolerance {tolerance:.0%})"
        )
    # Secondary gate: the vectorized three-level path.  Baselines recorded
    # before depth generalization carry no entry and are tolerated; once an
    # entry exists, the three-level throughput (absolute mode) or its
    # vector/fast speedup (relative mode) must not regress either.
    three_level = baseline.get("three_level_search_throughput")
    if three_level is not None:
        recorded_three = three_level["evals_per_second"]["three_level_cached"]
        measured_three = _measure_throughput(budget, reps, num_levels=3)
        three_payload = {
            "recorded_evals_per_second": recorded_three,
            "measured_evals_per_second": round(measured_three, 1),
        }
        if relative:
            recorded_ratio_three = three_level["speedup_vector_vs_fast"]
            fast_three = _measure_throughput(
                budget, reps, num_levels=3, engine="fast"
            )
            measured_ratio_three = measured_three / fast_three
            floor_three = recorded_ratio_three * (1.0 - tolerance)
            three_passed = measured_ratio_three >= floor_three
            three_payload.update(
                {
                    "recorded_speedup_vs_fast": recorded_ratio_three,
                    "measured_speedup_vs_fast": round(measured_ratio_three, 2),
                    "floor_speedup": round(floor_three, 2),
                    "passed": three_passed,
                }
            )
            three_subject = (
                f"three_level_cached/fast speedup {measured_ratio_three:.2f}x "
                f"vs floor {floor_three:.2f}x"
            )
        else:
            floor_three = recorded_three * (1.0 - tolerance)
            three_passed = measured_three >= floor_three
            three_payload.update(
                {
                    "floor_evals_per_second": round(floor_three, 1),
                    "passed": three_passed,
                }
            )
            three_subject = (
                f"three_level_cached {measured_three:.1f} evals/s vs floor "
                f"{floor_three:.1f}"
            )
        payload["three_level"] = three_payload
        passed = passed and three_passed
        subject += "; " + three_subject
    # Tertiary gate: the persistent warm-cache tier.  Baselines recorded
    # before the L2 tier carry no entry and are tolerated; once an entry
    # exists, a warm rerun over one cache directory must keep answering
    # >= 90% of its layer pricings from disk (counter-verified) with a
    # bit-identical outcome — bench_warm_cache asserts the latter itself.
    warm_baseline = baseline.get("warm_cache")
    if warm_baseline is not None:
        warm = bench_warm_cache(budget, reps=1)
        warm_rate = warm["warm_l2_hit_rate"]
        warm_passed = warm_rate >= 0.90
        payload["warm_cache"] = {
            "recorded_warm_l2_hit_rate": warm_baseline["warm_l2_hit_rate"],
            "measured_warm_l2_hit_rate": warm_rate,
            "floor_warm_l2_hit_rate": 0.90,
            "passed": warm_passed,
        }
        passed = passed and warm_passed
        subject += f"; warm L2 hit rate {warm_rate:.1%} vs floor 90%"
    if output:
        Path(output).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(("OK: " if passed else "FAIL: ") + subject)
    return 0 if passed else 1


def check_smoke(budget: int = 400) -> int:
    """CI smoke: vector vs fast parity on small searches + micro-bench.

    One DiGamma search per engine on a GA population (budget // 25
    members), at two and at three hierarchy levels, asserting
    *bit-identical* best fitness and history, plus a throughput line so CI
    logs track the speed plumbing.  Exits non-zero if the engines disagree
    or the vector path failed to vectorize anything.
    """
    model = get_model("resnet18")
    for num_levels in (2, 3):
        outcomes = {}
        for name, kwargs in (("vector", {}), ("fast", {"engine": "fast"})):
            framework = CoOptimizationFramework(
                model, get_platform("edge"), num_levels=num_levels, **kwargs
            )
            start = time.perf_counter()
            result = framework.search(
                get_optimizer("digamma"), sampling_budget=budget, seed=0
            )
            elapsed = time.perf_counter() - start
            vector_stats = framework.evaluator.cost_model.vector_stats
            outcomes[name] = result
            print(
                f"{num_levels}-level {name:>7s}: "
                f"{result.evaluations / elapsed:8.0f} evals/s, "
                f"best fitness {result.best.fitness!r}, "
                f"{vector_stats['rows_vectorized']} rows vectorized "
                f"({vector_stats['rows_fallback']} scalar fallbacks)"
            )
            if name == "vector" and vector_stats["rows_vectorized"] == 0:
                print("FAIL: the vector engine never vectorized a row")
                return 1
        if outcomes["vector"].best.fitness != outcomes["fast"].best.fitness:
            print(
                f"FAIL: vector and fast disagree on the {num_levels}-level "
                "search outcome"
            )
            return 1
        if outcomes["vector"].history != outcomes["fast"].history:
            print(
                f"FAIL: vector and fast followed different {num_levels}-level "
                "trajectories"
            )
            return 1
    print(
        "OK: gene-matrix path is bit-identical to the scalar fast engine "
        "at 2 and 3 levels"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=2000)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI smoke mode: assert vector/fast parity on a small search "
        "and print a micro-benchmark line instead of writing the JSON",
    )
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="benchmark-regression gate: re-measure vector_cached search "
        "throughput and fail when it drops more than --tolerance below "
        "the recorded baseline (see --baseline)",
    )
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_cost_model.json"),
        help="recorded baseline JSON the regression gate compares against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional regression of vector_cached evals/s "
        "(default: 0.30, i.e. fail on >30%% regression)",
    )
    parser.add_argument(
        "--relative",
        action="store_true",
        help="gate the vector/fast speedup ratio instead of absolute "
        "evals/s (machine-independent; use on hosted CI runners)",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_cost_model.json"),
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")
    if args.check_regression:
        output = args.output
        if output == parser.get_default("output"):
            # Never overwrite the committed baseline with a gate measurement.
            output = None
        return check_regression(
            args.baseline,
            args.tolerance,
            args.reps,
            output=output,
            budget=args.budget,
            relative=args.relative,
        )
    if args.check:
        return check_smoke(min(args.budget, 400))

    payload = {
        "benchmark": "cost-model and GA search throughput",
        "machine": {
            "python": platform_module.python_version(),
            "platform": platform_module.platform(),
        },
        "single_layer_eval_us": bench_layer_eval(),
        "search_throughput": bench_search_throughput(args.budget, args.reps),
        "three_level_search_throughput": bench_three_level(
            args.budget, args.reps
        ),
        "warm_cache": bench_warm_cache(args.budget, args.reps),
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nWrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
