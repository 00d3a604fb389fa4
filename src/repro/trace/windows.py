"""Trace windowing: phase behaviour over time.

Real parallel programs run in phases — lock convoys form and dissolve,
producers fill buffers, routers sweep regions — so per-trace averages
can hide a lot.  These utilities split a trace into fixed-size windows
and measure per-window statistics or per-window simulation costs, the
standard way to expose phase structure in trace-driven studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.simulator import Simulator
from repro.cost.bus import BusModel
from repro.errors import ConfigurationError
from repro.trace.columnar import ColumnarTrace
from repro.trace.stats import TraceStatistics, compute_statistics
from repro.trace.stream import Trace


def windows(trace: Trace, window_size: int) -> Iterator[Trace]:
    """Split a trace into consecutive windows of *window_size* records.

    The last window may be shorter; empty traces yield nothing.
    """
    if window_size < 1:
        raise ConfigurationError("window_size must be >= 1")
    columns = ColumnarTrace.from_trace(trace)
    for start in range(0, len(columns), window_size):
        window = columns[start : start + window_size]
        window.name = f"{trace.name}[{start}:{start + window_size}]"
        window.description = trace.description
        yield Trace.from_columns(window)


def window_statistics(
    trace: Trace, window_size: int
) -> list[TraceStatistics]:
    """Table-3 style statistics for every window."""
    return [
        compute_statistics(window, window.name)
        for window in windows(trace, window_size)
    ]


@dataclass(frozen=True)
class WindowCost:
    """One window's coherence cost under a continuing simulation."""

    start: int
    end: int
    bus_cycles_per_reference: float
    data_miss_fraction: float
    spin_fraction: float


def window_costs(
    trace: Trace,
    scheme: str,
    bus: BusModel,
    window_size: int,
    simulator: Simulator | None = None,
) -> list[WindowCost]:
    """Per-window bus cycles with cache state carried across windows.

    Unlike simulating each window in isolation, the protocol state
    persists, so the numbers reflect the phase behaviour of a single
    continuous run (no artificial cold-start in every window).
    """
    if window_size < 1:
        raise ConfigurationError("window_size must be >= 1")
    simulator = simulator or Simulator()
    # Build the protocol once; feed windows through the same instance,
    # with first-reference and sharer state carried across segments.
    sharers = trace.pids if simulator.sharer_key == "pid" else trace.cpus
    from repro.core.simulator import SimulationContext
    from repro.protocols.registry import make_protocol

    protocol = make_protocol(scheme, max(1, len(sharers)))
    context = SimulationContext()

    costs: list[WindowCost] = []
    offset = 0
    for window in windows(trace, window_size):
        result = simulator.run(
            window, protocol, trace_name=window.name, context=context
        )
        stats = compute_statistics(window, window.name)
        costs.append(
            WindowCost(
                start=offset,
                end=offset + len(window),
                bus_cycles_per_reference=result.bus_cycles_per_reference(bus),
                data_miss_fraction=result.frequencies().data_miss_fraction,
                spin_fraction=(
                    stats.spin_reads / stats.total_refs if stats.total_refs else 0.0
                ),
            )
        )
        offset += len(window)
    return costs


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render values as a one-line ASCII sparkline (8 levels)."""
    if not values:
        return ""
    glyphs = " .:-=+*#@"
    peak = max(values)
    if len(values) > width:
        # Downsample by averaging buckets.
        bucket_size = len(values) / width
        resampled = []
        for index in range(width):
            low = int(index * bucket_size)
            high = max(low + 1, int((index + 1) * bucket_size))
            chunk = values[low:high]
            resampled.append(sum(chunk) / len(chunk))
        values = resampled
        peak = max(values)
    if peak == 0:
        return glyphs[0] * len(values)
    return "".join(
        glyphs[min(len(glyphs) - 1, int(value / peak * (len(glyphs) - 1) + 0.5))]
        for value in values
    )
