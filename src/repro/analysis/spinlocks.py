"""Section 5.2: impact of spin locks on coherence performance.

The paper re-runs its simulations with the lock-test reads removed from
the traces and finds Dir1NB improves from 0.32 to 0.12 bus cycles per
reference (spins bounce lock blocks between caches under a single-copy
scheme) while Dir0B is essentially unchanged (spins hit in the cache).
:func:`spin_lock_impact` reproduces the experiment for any scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.result import merge_results
from repro.core.simulator import Simulator
from repro.cost.bus import BusModel
from repro.trace.filters import exclude_lock_spins
from repro.trace.stream import Trace


@dataclass(frozen=True)
class SpinLockImpact:
    """Before/after cost of one scheme when lock spins are excluded."""

    scheme: str
    with_spins: float
    without_spins: float

    @property
    def absolute_drop(self) -> float:
        """Cost removed by excluding spins (cycles/reference)."""
        return self.with_spins - self.without_spins

    @property
    def relative_drop(self) -> float:
        """Fraction of the cost attributable to spin reads."""
        if self.with_spins == 0:
            return 0.0
        return self.absolute_drop / self.with_spins


def strip_spins(trace: Trace) -> Trace:
    """A copy of *trace* without the spin-lock test reads."""
    kept = exclude_lock_spins(trace)
    kept.description = f"{trace.description} (lock spins excluded)"
    return Trace.from_columns(kept)


def spin_lock_impact(
    traces: Sequence[Trace],
    scheme: str,
    bus: BusModel,
    simulator: Simulator | None = None,
) -> SpinLockImpact:
    """Run the Section 5.2 experiment for *scheme* over *traces*."""
    simulator = simulator or Simulator()
    with_spins = merge_results(
        [simulator.run(trace, scheme) for trace in traces]
    ).bus_cycles_per_reference(bus)
    without_spins = merge_results(
        [simulator.run(strip_spins(trace), scheme) for trace in traces]
    ).bus_cycles_per_reference(bus)
    return SpinLockImpact(
        scheme=scheme, with_spins=with_spins, without_spins=without_spins
    )
