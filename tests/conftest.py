"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.invariants import InvariantChecker
from repro.protocols.base import CoherenceProtocol
from repro.protocols.events import ProtocolResult
from repro.trace.columnar import ColumnarTrace
from repro.trace.record import RefType, TraceRecord
from repro.trace.stream import Trace
from repro.workloads.registry import make_trace

# Property tests run derandomized by default: CI and local runs replay
# the same fixed example streams, so a red build is always reproducible
# and never depends on which seed the scheduler happened to draw.
# Passing ``--hypothesis-seed=<n|random>`` opts back into seeded
# exploration (the "dev" profile) for local bug hunting.
settings.register_profile("ci", derandomize=True)
settings.register_profile("dev", derandomize=False)


def pytest_configure(config: pytest.Config) -> None:
    explicit_seed = config.getoption("--hypothesis-seed", default=None)
    settings.load_profile("dev" if explicit_seed is not None else "ci")


def drive(
    protocol: CoherenceProtocol,
    refs,
    check: bool = True,
) -> list[ProtocolResult]:
    """Feed ``(cache, "r"|"w", block)`` triples to a protocol.

    First references are detected automatically, and (by default) the
    invariant checker runs on the touched block after every reference.
    """
    seen: set[int] = set()
    checker = InvariantChecker(protocol)
    results = []
    for cache, op, block in refs:
        first = block not in seen
        seen.add(block)
        if op == "r":
            results.append(protocol.on_read(cache, block, first))
        elif op == "w":
            results.append(protocol.on_write(cache, block, first))
        else:
            raise ValueError(f"op must be 'r' or 'w', got {op!r}")
        if check:
            checker.check_block(block)
    return results


def make_records(spec) -> list[TraceRecord]:
    """Build records from ``(cpu, pid, "i"|"r"|"w", address)`` tuples."""
    types = {"i": RefType.INSTR, "r": RefType.READ, "w": RefType.WRITE}
    return [
        TraceRecord(cpu=cpu, pid=pid, ref_type=types[op], address=address)
        for cpu, pid, op, address in spec
    ]


def record_loop(simulator, trace, protocol, **kwargs):
    """Simulate *trace* on the record loop, the reference implementation.

    ``Simulator.run`` puts every trace on the columnar path; only a bare
    record iterable reaches the record loop, so this passes the trace's
    records as a list, with the machine size and name the trace itself
    would have given.  The trace keeps its columns.
    """
    if isinstance(protocol, str) and "num_caches" not in kwargs:
        sharers = trace.pids if simulator.sharer_key == "pid" else trace.cpus
        kwargs["num_caches"] = max(1, len(sharers))
    kwargs.setdefault("trace_name", trace.name)
    records = ColumnarTrace.from_trace(trace).to_records()
    return simulator.run(records, protocol, **kwargs)


def tiny_trace(name: str = "tiny") -> Trace:
    """A deterministic hand-written 2-process trace touching 3 blocks."""
    return Trace(
        name,
        make_records(
            [
                (0, 0, "i", 0x1000),
                (0, 0, "r", 0x2000),  # P0 first-ref read block A
                (1, 1, "r", 0x2000),  # P1 reads A (shared)
                (0, 0, "w", 0x2000),  # P0 writes A (invalidate P1)
                (1, 1, "r", 0x2000),  # P1 re-reads A (dirty at P0)
                (1, 1, "w", 0x3000),  # P1 first-ref write block B
                (0, 0, "r", 0x3000),  # P0 reads B (dirty at P1)
                (0, 0, "r", 0x4000),  # P0 first-ref read block C
                (0, 0, "w", 0x4000),  # P0 writes its own clean block
            ]
        ),
    )


@pytest.fixture
def trace_tiny() -> Trace:
    return tiny_trace()


@pytest.fixture(scope="session")
def pops_small() -> Trace:
    """A small POPS-analogue trace shared across the session."""
    return make_trace("pops", length=30_000)


@pytest.fixture(scope="session")
def standard_small() -> list[Trace]:
    """Small versions of the three standard traces."""
    return [make_trace(name, length=30_000) for name in ("pops", "thor", "pero")]
