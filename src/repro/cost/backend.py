"""Pluggable cost-backend seam.

The evaluator historically hard-wired :class:`repro.cost.maestro.CostModel`
(the analytic MAESTRO-style engine).  This module names the protocol that
class already satisfies and provides a factory, so alternative cost models
— starting with the ZigZag-style memory-centric backend — plug in behind
the same ``engine=``/caching machinery without the evaluator, sweep runner
or CLIs knowing which implementation prices a design.
"""

from __future__ import annotations

from typing import List, Protocol, runtime_checkable

from repro.arch.energy import EnergyModel
from repro.cost.cache import CacheStats, LRUCache
from repro.cost.maestro import DEFAULT_LAYER_CACHE_SIZE, CostModel
from repro.cost.performance import ModelPerformance
from repro.cost.zigzag import ZigZagCostModel
from repro.workloads.model import Model

#: Valid ``backend=`` choices, in preference order.
BACKENDS = ("analytic", "zigzag")


@runtime_checkable
class CostBackend(Protocol):
    """What the evaluator and sweep runner require of a cost model.

    Both :class:`repro.cost.maestro.CostModel` (``analytic``) and
    :class:`repro.cost.zigzag.ZigZagCostModel` (``zigzag``) satisfy this
    structurally; no inheritance is involved.
    """

    bytes_per_element: int

    def evaluate_model(
        self,
        model: Model,
        mappings,
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> ModelPerformance:
        """Price one model under one mapping provider."""

    def evaluate_model_matrix(
        self,
        model: Model,
        design_matrix,
        noc_bandwidth,
        dram_bandwidth,
    ) -> List[ModelPerformance]:
        """Price packed gene-matrix rows (may reject unsupported layouts)."""

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the per-layer report cache."""

    def cache_clear(self) -> None:
        """Drop memoized layer reports."""

    @property
    def layer_cache(self) -> LRUCache:
        """The layer-report cache instance."""

    def adopt_cache(self, cache: LRUCache) -> None:
        """Swap in an externally owned layer-report cache."""

    @property
    def vector_stats(self) -> dict:
        """Vector-path and persistent-tier counters (zeros when inapplicable)."""


def create_backend(
    name: str,
    *,
    energy_model: EnergyModel = EnergyModel(),
    bytes_per_element: int = 1,
    cache_size: int = DEFAULT_LAYER_CACHE_SIZE,
    engine: str = "fast",
) -> CostBackend:
    """Build the cost model implementing backend ``name``."""
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
            engine=engine,
        )
    raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")
