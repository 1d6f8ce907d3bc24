#!/usr/bin/env python3
"""Edge vs. cloud: how the area budget changes the co-optimized accelerator.

Runs DiGamma on the same model under the paper's two platform presets
(0.2 mm^2 edge, 7.0 mm^2 cloud) and contrasts the resulting designs: PE
count, buffer sizes, compute-to-buffer area split and latency.  This is the
scenario the paper's introduction motivates — the "right" accelerator looks
completely different once the budget or the workload changes, which is why
the co-optimization loop has to be automatic.

Usage::

    python examples/edge_cloud_coopt.py [--model resnet50] [--budget 2000]
"""

from __future__ import annotations

import argparse

from repro import CLOUD, EDGE, CoOptimizationFramework, DiGamma, get_model
from repro.experiments.runner import bounded, positive_int


def search(model, platform, budget: int, seed: int):
    framework = CoOptimizationFramework(model, platform)
    return framework.search(DiGamma(), sampling_budget=budget, seed=seed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="resnet50", help="target DNN model")
    parser.add_argument("--budget", type=positive_int, default=2000, help="sampling budget per search")
    parser.add_argument("--seed", type=bounded(int, 0), default=0, help="random seed")
    args = parser.parse_args()

    model = get_model(args.model)
    print(f"Co-optimizing {model.name} for edge and cloud budgets "
          f"({args.budget} samples each)\n")

    results = {}
    for platform in (EDGE, CLOUD):
        results[platform.name] = search(model, platform, args.budget, args.seed)

    for name, result in results.items():
        print(f"=== {name} ({'0.2' if name == 'edge' else '7.0'} mm^2) ===")
        if not result.found_valid:
            print("no valid design found\n")
            continue
        print(result.best.design.describe())
        print()

    edge_result, cloud_result = results["edge"], results["cloud"]
    if edge_result.found_valid and cloud_result.found_valid:
        speedup = edge_result.best_latency / cloud_result.best_latency
        edge_pes = edge_result.best.design.hardware.num_pes
        cloud_pes = cloud_result.best.design.hardware.num_pes
        print(f"Cloud design uses {cloud_pes / edge_pes:.1f}x more PEs and is "
              f"{speedup:.1f}x faster than the edge design.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
