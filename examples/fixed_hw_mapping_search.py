#!/usr/bin/env python3
"""Fixed-HW use case: find the best mapping for an accelerator you already have.

The framework's design-constraint input (paper Sec. III-B) supports the
compiler-style scenario: the chip is already built, only the mapping can
change.  This example fixes a compute-focused accelerator, then

1. evaluates the hand-designed NVDLA-like (dla) mapping on it, and
2. lets GAMMA (the mapping-only GA) search for a better mapping under the
   same buffer capacities,

and reports the speedup of searched over manual mapping per model.

Usage::

    python examples/fixed_hw_mapping_search.py [--models mnasnet bert] [--budget 1500]
"""

from __future__ import annotations

import argparse

from repro import EDGE, CoOptimizationFramework, GammaMapper, get_dataflow, get_model
from repro.experiments.runner import bounded, positive_int
from repro.experiments.settings import make_fixed_hardware


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", nargs="+", default=["mnasnet", "bert"],
                        help="models to map onto the fixed accelerator")
    parser.add_argument("--budget", type=positive_int, default=1500, help="sampling budget per search")
    parser.add_argument("--seed", type=bounded(int, 0), default=0, help="random seed")
    args = parser.parse_args()

    hardware = make_fixed_hardware(EDGE, compute_fraction=0.75)
    print("Fixed accelerator (compute-focused, edge budget):")
    print(f"  {hardware.describe()}\n")

    dla = get_dataflow("dla")
    for model_name in args.models:
        model = get_model(model_name)
        framework = CoOptimizationFramework(model, EDGE, fixed_hardware=hardware)

        manual = framework.evaluator.evaluate_mapping(
            lambda layer: dla(layer, hardware.pe_array),
            pe_array=hardware.pe_array,
        )
        searched = framework.search(GammaMapper(), sampling_budget=args.budget,
                                    seed=args.seed)

        print(f"=== {model_name} ===")
        if manual.valid:
            print(f"  dla-like manual mapping : {manual.design.latency:.3e} cycles")
        else:
            print("  dla-like manual mapping : does not fit the fixed buffers")
        if searched.found_valid:
            print(f"  GAMMA searched mapping  : {searched.best_latency:.3e} cycles")
            if manual.valid:
                print(f"  speedup                 : "
                      f"{manual.design.latency / searched.best_latency:.2f}x")
            print("  searched mapping:")
            for line in searched.best.design.mapping.describe().splitlines():
                print("    " + line)
        else:
            print("  GAMMA searched mapping  : no valid mapping found")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
