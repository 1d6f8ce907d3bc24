#!/usr/bin/env python3
"""Plug different optimization algorithms into the Co-opt Framework.

The framework exposes one generic interface (a sampling budget and a fitness
function), so any black-box optimizer can drive the co-optimization.  This
example runs a user-selected subset of the paper's nine algorithms on one
model and prints the best latency and the convergence history of each — a
miniature, single-model version of the paper's Fig. 5.

Usage::

    python examples/compare_optimizers.py --model mnasnet \
        --optimizers random cma digamma --budget 1500
"""

from __future__ import annotations

import argparse

from repro import EDGE, CoOptimizationFramework, get_model, get_optimizer
from repro.experiments.runner import bounded, positive_int
from repro.optim.registry import available_optimizers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="mnasnet", help="target DNN model")
    parser.add_argument("--optimizers", nargs="+",
                        default=["random", "stdga", "cma", "digamma"],
                        help=f"optimizers to compare (available: {available_optimizers()})")
    parser.add_argument("--budget", type=positive_int, default=1500, help="sampling budget per search")
    parser.add_argument("--seed", type=bounded(int, 0), default=0, help="random seed")
    args = parser.parse_args()

    model = get_model(args.model)
    framework = CoOptimizationFramework(model, EDGE)
    print(f"Comparing optimizers on {model.name} (edge, {args.budget} samples each)\n")

    results = {}
    for name in args.optimizers:
        optimizer = get_optimizer(name)
        results[optimizer.name] = framework.search(
            optimizer, sampling_budget=args.budget, seed=args.seed
        )

    best_latency = min(
        (result.best_latency for result in results.values()), default=float("inf")
    )
    print(f"{'optimizer':<12} {'latency (cycles)':>18} {'vs best':>9} "
          f"{'improvements':>13} {'time':>8}")
    print("-" * 66)
    for name, result in results.items():
        if result.found_valid:
            ratio = result.best_latency / best_latency
            print(f"{name:<12} {result.best_latency:>18.3e} {ratio:>8.2f}x "
                  f"{len(result.history):>13d} {result.wall_time_seconds:>7.1f}s")
        else:
            print(f"{name:<12} {'N/A':>18} {'-':>9} {len(result.history):>13d} "
                  f"{result.wall_time_seconds:>7.1f}s")

    print("\nConvergence (evaluation index of each improvement -> latency):")
    for name, result in results.items():
        if not result.found_valid:
            continue
        points = [f"{index}:{-fitness:.2e}" for index, fitness in result.history[-5:]
                  if fitness < 0]
        print(f"  {name:<12} ... {' '.join(points)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
