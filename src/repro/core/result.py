"""Simulation results: event counts decoupled from bus-cycle costs.

One simulation run per (trace, protocol) measures event frequencies and
aggregated bus operations; any number of bus models can then be priced
against the same result without re-simulating — the paper's "we need
just one simulation run per protocol ... and we can then vary costs for
different hardware models" (Section 4.1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.frequencies import EventFrequencies
from repro.cost.accounting import CycleBreakdown, charge_ops
from repro.cost.bus import BusModel
from repro.protocols.events import EventType


@dataclass
class SimulationResult:
    """Everything measured by one simulation of one protocol on one trace.

    Attributes:
        scheme: protocol registry name (e.g. ``"dir0b"``).
        trace_name: name of the input trace.
        total_refs: all references processed (instructions included).
        event_counts: occurrences of each Table 4 event.
        op_units: per-event aggregated bus-operation unit counts;
            ``op_units[event][kind]`` is the total number of
            kind-operations (an ``invalidate(3)`` contributes 3 units).
        bus_transactions: references that performed at least one bus
            operation (the Figure 5 denominator).
        clean_write_histogram: the Figure 1 population — for each write
            to a previously-clean block, the number of *other* caches
            holding the block, bucketed by that number.
        wasted_invalidations: invalidation messages to non-holders
            (coarse-vector directories).
        pointer_evictions: DiriNB sharer displacements due to pointer
            overflow.
        directory_recalls: directory entries recalled (sharers
            invalidated) under a finite directory capacity.
    """

    scheme: str
    trace_name: str
    total_refs: int = 0
    event_counts: Counter = field(default_factory=Counter)
    op_units: dict = field(default_factory=dict)
    bus_transactions: int = 0
    clean_write_histogram: Counter = field(default_factory=Counter)
    wasted_invalidations: int = 0
    pointer_evictions: int = 0
    directory_recalls: int = 0

    # ------------------------------------------------------------------
    # Accumulation (used by the simulator)
    # ------------------------------------------------------------------

    def record_batch(self, result, count: int) -> None:
        """Accumulate one :class:`ProtocolResult` *count* times at once.

        The simulator's loops batch runs of identical (shared-instance)
        outcomes; a count of 1 records a single reference.
        """
        if count <= 0:
            return
        self.total_refs += count
        self.event_counts[result.event] += count
        if result.ops:
            self.bus_transactions += count
            units = self.op_units.setdefault(result.event, Counter())
            for op in result.ops:
                units[op.kind] += op.count * count
        if result.clean_write_sharers is not None:
            self.clean_write_histogram[result.clean_write_sharers] += count
        self.wasted_invalidations += result.wasted_invalidations * count
        self.pointer_evictions += result.pointer_evictions * count
        self.directory_recalls += result.directory_recalls * count

    def record_instructions(self, count: int) -> None:
        """Accumulate *count* instruction fetches at once."""
        if count <= 0:
            return
        self.total_refs += count
        self.event_counts[EventType.INSTR] += count

    # ------------------------------------------------------------------
    # Derived measures
    # ------------------------------------------------------------------

    def frequencies(self) -> EventFrequencies:
        """Table 4 event frequencies for this run."""
        return EventFrequencies(Counter(self.event_counts), self.total_refs)

    def all_op_units(self) -> Counter:
        """Op-kind unit counts summed over every event type."""
        total: Counter = Counter()
        for units in self.op_units.values():
            total.update(units)
        return total

    def breakdown_per_reference(self, bus: BusModel) -> CycleBreakdown:
        """Table 5: bus cycles per reference by cost category."""
        if self.total_refs == 0:
            return CycleBreakdown()
        return charge_ops(self.all_op_units(), bus).per_reference(self.total_refs)

    def bus_cycles_per_reference(self, bus: BusModel) -> float:
        """The paper's primary metric (Figures 2 and 3)."""
        return self.breakdown_per_reference(bus).total

    def transactions_per_reference(self) -> float:
        """Bus transactions per memory reference (the §5.1 slope)."""
        if self.total_refs == 0:
            return 0.0
        return self.bus_transactions / self.total_refs

    def cycles_per_transaction(self, bus: BusModel) -> float:
        """Figure 5: average bus cycles per bus transaction."""
        if self.bus_transactions == 0:
            return 0.0
        return charge_ops(self.all_op_units(), bus).total / self.bus_transactions

    def cycles_with_overhead(self, bus: BusModel, q: float) -> float:
        """Section 5.1: cycles/reference with q extra cycles per transaction."""
        if q < 0:
            raise ValueError(f"q must be non-negative, got {q}")
        return self.bus_cycles_per_reference(bus) + q * self.transactions_per_reference()

    def event_cycles_per_reference(self, bus: BusModel) -> dict[EventType, float]:
        """Cycles per reference attributed to each event type."""
        if self.total_refs == 0:
            return {}
        return {
            event: charge_ops(units, bus).total / self.total_refs
            for event, units in self.op_units.items()
        }

    def invalidation_distribution(self) -> dict[int, float]:
        """Figure 1: P(#other caches invalidated = k) for clean-block writes."""
        population = sum(self.clean_write_histogram.values())
        if population == 0:
            return {}
        return {
            sharers: count / population
            for sharers, count in sorted(self.clean_write_histogram.items())
        }

    def single_invalidation_fraction(self) -> float:
        """Fraction of clean-block writes invalidating at most one cache.

        The paper's headline structural result: over 85%.
        """
        population = sum(self.clean_write_histogram.values())
        if population == 0:
            return 0.0
        covered = sum(
            count for sharers, count in self.clean_write_histogram.items() if sharers <= 1
        )
        return covered / population


def merge_results(
    results: Sequence[SimulationResult], name: str = "combined"
) -> SimulationResult:
    """Pool runs of the *same scheme* over several traces.

    Counts are summed, which weights each trace by its reference count —
    this is how the paper's "averaged across the three traces" Table 4
    column is produced.
    """
    if not results:
        raise ValueError("cannot merge an empty result list")
    schemes = {result.scheme for result in results}
    if len(schemes) != 1:
        raise ValueError(f"cannot merge results from different schemes: {schemes}")
    merged = SimulationResult(scheme=results[0].scheme, trace_name=name)
    for result in results:
        merged.total_refs += result.total_refs
        merged.event_counts.update(result.event_counts)
        merged.bus_transactions += result.bus_transactions
        merged.clean_write_histogram.update(result.clean_write_histogram)
        merged.wasted_invalidations += result.wasted_invalidations
        merged.pointer_evictions += result.pointer_evictions
        merged.directory_recalls += result.directory_recalls
        for event, units in result.op_units.items():
            merged.op_units.setdefault(event, Counter()).update(units)
    return merged
