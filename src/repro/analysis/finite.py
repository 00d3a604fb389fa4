"""Finite-cache cost decomposition (the paper's §4 first-order estimate).

The paper simulates infinite caches and argues that "the performance of
a system with smaller caches can be estimated to first order by adding
the costs due to the finite cache size".  With the finite-cache
extension both quantities can be *measured*, so this module decomposes
a finite-cache run into:

* the **coherence component** — the infinite-cache cost of the same
  trace and scheme (what the paper reports), and
* the **capacity component** — the additional cycles caused by
  replacement misses and victim write-backs.

It also quantifies what the paper could not: whether finite capacity
*reorders* the schemes.  :func:`ranking_shift` ranks every scheme under
the infinite model and under one finite geometry and reports which
schemes change places — the question a sweep over
:class:`~repro.memory.geometry.CacheGeometry` cells answers per
capacity point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.simulator import Simulator
from repro.cost.bus import BusModel
from repro.memory.geometry import CacheGeometry, parse_geometry
from repro.trace.stream import Trace


@dataclass(frozen=True)
class FiniteCacheDecomposition:
    """Measured cost split for one (trace, scheme, cache geometry)."""

    scheme: str
    trace_name: str
    infinite_cost: float
    finite_cost: float
    geometry: str | None = None

    @property
    def capacity_component(self) -> float:
        """Extra cycles/reference attributable to finite capacity."""
        return max(0.0, self.finite_cost - self.infinite_cost)

    @property
    def capacity_share(self) -> float:
        """Capacity misses' share of the finite-cache total."""
        if self.finite_cost == 0:
            return 0.0
        return self.capacity_component / self.finite_cost


def decompose_finite_cost(
    trace: Trace,
    scheme: str,
    bus: BusModel,
    cache_factory: Callable | None = None,
    simulator: Simulator | None = None,
    geometry: Any | None = None,
) -> FiniteCacheDecomposition:
    """Measure the coherence/capacity split for one configuration.

    Args:
        trace: the input trace.
        scheme: protocol registry name.
        bus: cost model to price both runs under.
        cache_factory: zero-argument factory for the finite caches
            (e.g. ``lambda: FiniteCache(256, 2)``); superseded by
            *geometry* when both are given.
        geometry: any :func:`~repro.memory.geometry.parse_geometry`
            spelling — the first-class way to pick the finite shape
            (engages the transition tables' LRU layer and result caching).
    """
    simulator = simulator or Simulator()
    infinite = simulator.run(trace, scheme)
    canonical: str | None = None
    if geometry is not None:
        canonical = parse_geometry(geometry).canonical()
        finite = simulator.run(trace, scheme, geometry=canonical)
    elif cache_factory is not None:
        finite = simulator.run(trace, scheme, cache_factory=cache_factory)
    else:
        raise TypeError("decompose_finite_cost needs geometry or cache_factory")
    return FiniteCacheDecomposition(
        scheme=scheme,
        trace_name=trace.name,
        infinite_cost=infinite.bus_cycles_per_reference(bus),
        finite_cost=finite.bus_cycles_per_reference(bus),
        geometry=canonical,
    )


def capacity_sweep(
    trace: Trace,
    scheme: str,
    bus: BusModel,
    geometries: Sequence[Any],
    simulator: Simulator | None = None,
) -> list[tuple[CacheGeometry, FiniteCacheDecomposition]]:
    """Decompose costs across cache geometries.

    Each entry of *geometries* is any
    :func:`~repro.memory.geometry.parse_geometry` spelling — a
    :class:`CacheGeometry`, a ``"LINESxASSOC"`` string, a
    ``(lines, assoc)`` pair (the historic ``(num_sets, assoc)`` call
    sites parse identically when associativity is 1; pass total lines).
    """
    results = []
    for spec in geometries:
        geometry = parse_geometry(spec)
        decomposition = decompose_finite_cost(
            trace, scheme, bus, geometry=geometry, simulator=simulator
        )
        results.append((geometry, decomposition))
    return results


@dataclass(frozen=True)
class RankingShift:
    """Scheme ordering under the infinite model vs one finite geometry.

    Orders are best-first (fewest bus cycles per reference).  A shift
    means the paper's infinite-cache conclusions would not survive this
    capacity point unchanged.
    """

    trace_name: str
    geometry: CacheGeometry
    infinite_costs: dict[str, float] = field(compare=False)
    finite_costs: dict[str, float] = field(compare=False)

    @property
    def infinite_order(self) -> tuple[str, ...]:
        """Schemes best-first under infinite caches."""
        return tuple(sorted(self.infinite_costs, key=self.infinite_costs.get))

    @property
    def finite_order(self) -> tuple[str, ...]:
        """Schemes best-first under this finite geometry."""
        return tuple(sorted(self.finite_costs, key=self.finite_costs.get))

    @property
    def shifted(self) -> bool:
        """True when finite capacity reorders any schemes."""
        return self.infinite_order != self.finite_order

    @property
    def displaced(self) -> tuple[str, ...]:
        """Schemes whose rank position changes, in finite-order."""
        infinite = self.infinite_order
        return tuple(
            scheme
            for position, scheme in enumerate(self.finite_order)
            if infinite[position] != scheme
        )


def ranking_shift(
    trace: Trace,
    schemes: Sequence[str],
    bus: BusModel,
    geometry: Any,
    simulator: Simulator | None = None,
) -> RankingShift:
    """Rank *schemes* under infinite caches and under *geometry*."""
    simulator = simulator or Simulator()
    parsed = parse_geometry(geometry)
    infinite_costs: dict[str, float] = {}
    finite_costs: dict[str, float] = {}
    for scheme in schemes:
        infinite = simulator.run(trace, scheme)
        finite = simulator.run(trace, scheme, geometry=parsed.canonical())
        infinite_costs[scheme] = infinite.bus_cycles_per_reference(bus)
        finite_costs[scheme] = finite.bus_cycles_per_reference(bus)
    return RankingShift(
        trace_name=trace.name,
        geometry=parsed,
        infinite_costs=infinite_costs,
        finite_costs=finite_costs,
    )


def ranking_shifts(
    trace: Trace,
    schemes: Sequence[str],
    bus: BusModel,
    geometries: Sequence[Any],
    simulator: Simulator | None = None,
) -> list[RankingShift]:
    """:func:`ranking_shift` across a capacity sweep, one per geometry."""
    simulator = simulator or Simulator()
    return [
        ranking_shift(trace, schemes, bus, geometry, simulator=simulator)
        for geometry in geometries
    ]
