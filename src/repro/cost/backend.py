"""Pluggable cost-backend seam.

A cost backend is a :class:`repro.cost.maestro.CostModel` with its own
per-layer pricer (``price_layer``) and its own persistent-tier namespace
(``backend_name``): the analytic MAESTRO-style model is the base class
itself, and the ZigZag-style memory-centric model
(:class:`repro.cost.zigzag.ZigZagCostModel`) subclasses it.  Both share
the layer-report LRU, its L2 tier and the caching machinery, so the
evaluator, sweep runner and CLIs never need to know which implementation
prices a design.  This module names the backends and builds them.
"""

from __future__ import annotations

from repro.arch.energy import EnergyModel
from repro.cost.maestro import DEFAULT_LAYER_CACHE_SIZE, CostModel
from repro.cost.zigzag import ZigZagCostModel

#: Valid ``backend=`` choices, in preference order.
BACKENDS = ("analytic", "zigzag")


def create_backend(
    name: str,
    *,
    energy_model: EnergyModel = EnergyModel(),
    bytes_per_element: int = 1,
    cache_size: int = DEFAULT_LAYER_CACHE_SIZE,
    engine: str = "fast",
) -> CostModel:
    """Build the cost model implementing backend ``name``.

    ``engine`` selects between the analytic backend's implementations; the
    zigzag backend has a single one and ignores it.
    """
    if name == "analytic":
        return CostModel(
            energy_model=energy_model,
            bytes_per_element=bytes_per_element,
            cache_size=cache_size,
            engine=engine,
        )
    if name == "zigzag":
        return ZigZagCostModel(
            energy_model=energy_model,
            bytes_per_element=bytes_per_element,
            cache_size=cache_size,
        )
    raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")
