#!/usr/bin/env python3
"""Quickstart: co-optimize HW and mapping for ResNet-18 on an edge budget.

This is the 60-second tour of the library: pick a model and a platform,
run DiGamma under a sampling budget, and inspect the accelerator design
point it found (PE array, derived buffers, mapping, area split, latency).

Usage::

    python examples/quickstart.py [--model resnet18] [--budget 2000]
"""

from __future__ import annotations

import argparse

from repro import EDGE, CoOptimizationFramework, DiGamma, get_model
from repro.experiments.runner import bounded, positive_int


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="resnet18", help="target DNN model")
    parser.add_argument("--budget", type=positive_int, default=2000,
                        help="sampling budget (number of evaluated design points)")
    parser.add_argument("--seed", type=bounded(int, 0), default=0, help="random seed")
    args = parser.parse_args()

    model = get_model(args.model)
    print(f"Target model: {model.name} "
          f"({len(model.layers)} layers, {model.total_macs / 1e9:.2f} GMACs)")
    print(f"Platform: edge, area budget {EDGE.area_budget_mm2:.1f} mm^2")
    print(f"Sampling budget: {args.budget} design points\n")

    framework = CoOptimizationFramework(model, EDGE)
    result = framework.search(DiGamma(), sampling_budget=args.budget, seed=args.seed)

    if not result.found_valid:
        print("No valid design found; increase the sampling budget.")
        return 1

    design = result.best.design
    print("Best design point found by DiGamma")
    print("-" * 40)
    print(design.describe())
    print()
    print(f"Search summary: {result.summary()}")
    print(f"Average PE utilization: {design.performance.average_utilization:.1%}")
    print(f"Off-chip traffic: {design.performance.dram_bytes / 1e6:.2f} MB per inference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
