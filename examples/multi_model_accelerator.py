#!/usr/bin/env python3
"""Design one accelerator for a whole workload suite.

The Co-opt Framework accepts "any DNN model(s)": when a device has to serve
several networks (say a vision CNN and a recommendation model), the HW
configuration must be chosen against all of them at once, even though each
would prefer a different compute-to-memory balance.  This example

1. co-optimizes an accelerator for each member model alone,
2. co-optimizes one accelerator for the weighted suite, and
3. reports how the specialist designs and the shared design differ
   (PE count, buffer split, per-model latency).

Usage::

    python examples/multi_model_accelerator.py --models mnasnet dlrm --budget 1500
"""

from __future__ import annotations

import argparse

from repro import EDGE, CoOptimizationFramework, DiGamma, ModelSuite, get_model
from repro.analysis import compare_designs
from repro.experiments.runner import bounded, positive_int


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", nargs="+", default=["mnasnet", "dlrm"],
                        help="member models of the suite")
    parser.add_argument("--weights", nargs="+", type=int, default=None,
                        help="relative inference frequency of each model")
    parser.add_argument("--budget", type=positive_int, default=1500, help="sampling budget per search")
    parser.add_argument("--seed", type=bounded(int, 0), default=0, help="random seed")
    args = parser.parse_args()

    suite = ModelSuite.from_names("suite", args.models, weights=args.weights)
    print(suite.summary())
    print()

    results = {}
    # Specialist accelerators: one per member model.
    for model_name in args.models:
        framework = CoOptimizationFramework(get_model(model_name), EDGE)
        results[f"only {model_name}"] = framework.search(
            DiGamma(), sampling_budget=args.budget, seed=args.seed
        )

    # One shared accelerator for the whole suite.
    shared_framework = CoOptimizationFramework(suite.as_model(), EDGE)
    shared = shared_framework.search(DiGamma(), sampling_budget=args.budget, seed=args.seed)
    results["shared (suite)"] = shared

    print(compare_designs(results))
    print()

    if shared.found_valid:
        # How well does the shared design serve each member model?
        shared_design = shared.best.design
        print("Shared design evaluated per member model:")
        for model_name in args.models:
            framework = CoOptimizationFramework(get_model(model_name), EDGE)
            evaluation = framework.evaluator.evaluate_mapping(
                shared_design.mapping, pe_array=shared_design.hardware.pe_array
            )
            specialist = results[f"only {model_name}"]
            if specialist.found_valid and evaluation.valid:
                penalty = evaluation.design.latency / specialist.best_latency
                print(f"  {model_name:<14} {evaluation.design.latency:.3e} cycles "
                      f"({penalty:.2f}x vs its specialist design)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
