"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import struct

import pytest
from hypothesis import settings

from repro.core.invariants import InvariantChecker
from repro.core.result import SimulationResult
from repro.core.simulator import SimulationContext
from repro.errors import ConfigurationError
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


def write_flagged_binary(path, flags: int) -> None:
    """A 2-record binary trace whose second record has flags byte *flags*."""
    record = struct.Struct("<HHBBHQ")  # cpu, pid, type, flags, reserved, address
    path.write_bytes(
        struct.pack("<4sHHQ", b"RPTR", 1, 0, 2)
        + record.pack(0, 1, 1, 0, 0, 0x40)
        + record.pack(1, 2, 2, flags, 0, 0x80)
    )


def record_loop(simulator, trace, protocol, num_caches=None, trace_name=None,
                context=None, **options):
    """Simulate *trace* one record at a time: the differential reference.

    One protocol call per data record, in trace order, and, when the
    simulator checks invariants, the checker on the referenced block
    after every N-th data reference of the call: simple enough to check
    by eye, and what every ``Simulator.run`` path must equal.  *trace*
    is a trace (it keeps its columns) or a record iterable, for which
    *num_caches* is needed when *protocol* is a name.
    """
    named = isinstance(trace, (Trace, ColumnarTrace))
    protocol = simulator._resolve_protocol(protocol, trace, num_caches, options)
    result = SimulationResult(
        scheme=protocol.name,
        trace_name=trace_name or (trace.name if named else "stream"),
    )
    context = context or SimulationContext()
    records = ColumnarTrace.from_trace(trace).to_records() if named else trace
    checker = InvariantChecker(protocol)
    interval = simulator.check_interval
    data_refs = 0
    for record in records:
        context.records_done += 1
        if record.ref_type is RefType.INSTR:
            result.record_instructions(1)
            continue
        sharer = getattr(record, simulator.sharer_key)
        cache = context.sharer_index.get(sharer)
        if cache is None:
            cache = len(context.sharer_index)
            if cache >= protocol.num_caches:
                raise ConfigurationError(
                    f"trace contains more than num_caches={protocol.num_caches} "
                    f"distinct sharers (sharer id {sharer})"
                )
            context.sharer_index[sharer] = cache
        block = simulator.block_mapper.block_of(record.address)
        first_ref = block not in context.seen_blocks
        context.seen_blocks.add(block)
        if record.ref_type is RefType.READ:
            outcome = protocol.on_read(cache, block, first_ref)
        else:
            outcome = protocol.on_write(cache, block, first_ref)
        result.record_batch(outcome, 1)
        data_refs += 1
        if interval and data_refs % interval == 0:
            checker.check_block(block)
    return result


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
