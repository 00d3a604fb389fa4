"""The trace-driven multi-cache simulator (paper Section 4).

The simulator walks a trace once, feeding data references to a
coherence protocol and accumulating the Table-4 event counts and bus
operations into a :class:`~repro.core.result.SimulationResult`.

Methodology choices match the paper:

* **Infinite caches** by default, so remaining misses are coherence
  misses (pass ``cache_factory`` to the protocol for the finite-cache
  extension).
* **First references** are detected globally (first data reference to a
  block anywhere in the machine) and classified as first-reference
  misses, which carry no bus cost.
* **Instructions** cause no coherence traffic and are not charged.
* **Sharing is keyed by process** (pid) by default; ``sharer_key="cpu"``
  switches to the processor-sharing view (Section 4.4).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Iterable

from repro.core.invariants import InvariantChecker
from repro.core.result import SimulationResult
from repro.errors import ConfigurationError
from repro.memory.address import BlockMapper
from repro.protocols.base import CoherenceProtocol
from repro.protocols.kernels import kernel_run, open_kernel_session
from repro.protocols.registry import make_protocol
from repro.trace.columnar import TYPE_READ, ColumnarTrace, columnar_chunks
from repro.trace.record import RefType, TraceRecord
from repro.trace.stream import Trace

_SHARER_KEYS = ("pid", "cpu")


class SimulationContext:
    """Carry-over state for simulating one trace in several segments.

    Holds the global first-reference set and the sharer-to-cache-index
    mapping so that feeding a trace window by window through the *same*
    protocol instance behaves exactly like one continuous run.

    ``records_done`` counts every record fed through this context
    (instructions included); checkpoint/resume uses it to verify that a
    restored context really is positioned where the snapshot claims.
    """

    def __init__(self) -> None:
        self.seen_blocks: set[int] = set()
        self.sharer_index: dict[int, int] = {}
        self.records_done: int = 0


class Simulator:
    """Runs coherence protocols over multiprocessor address traces.

    Args:
        block_mapper: byte-address -> block mapping (16-byte blocks by
            default, as in the paper).
        sharer_key: ``"pid"`` (paper default: process sharing) or
            ``"cpu"`` (processor sharing).
        check_invariants: if truthy, run the
            :class:`~repro.core.invariants.InvariantChecker` on the
            referenced block after every data reference (``True``), or
            after every N-th reference (an integer interval).
    """

    def __init__(
        self,
        block_mapper: BlockMapper | None = None,
        sharer_key: str = "pid",
        check_invariants: bool | int = False,
    ) -> None:
        if sharer_key not in _SHARER_KEYS:
            raise ConfigurationError(
                f"sharer_key must be one of {_SHARER_KEYS}, got {sharer_key!r}"
            )
        self.block_mapper = block_mapper or BlockMapper()
        self.sharer_key = sharer_key
        if check_invariants is True:
            self.check_interval = 1
        elif check_invariants is False:
            self.check_interval = 0
        else:
            if check_invariants < 0:
                raise ConfigurationError("check_invariants interval must be >= 0")
            self.check_interval = int(check_invariants)

    def _sharer_of(self, record: TraceRecord) -> int:
        return record.pid if self.sharer_key == "pid" else record.cpu

    def run(
        self,
        trace: Trace | ColumnarTrace | Iterable[TraceRecord],
        protocol: CoherenceProtocol | str,
        num_caches: int | None = None,
        trace_name: str | None = None,
        context: SimulationContext | None = None,
        **protocol_options: Any,
    ) -> SimulationResult:
        """Simulate *protocol* over *trace* and return the measurements.

        The simulator picks the representation: every trace runs on the
        columnar path (a state-table kernel where one applies).  A
        column-backed :class:`~repro.trace.stream.Trace` hands over its
        columns, a record-backed one is packed, and a lazily read file
        or a chunked store streams a chunk at a time
        (:func:`~repro.trace.columnar.columnar_chunks`).  Bare record
        iterables and invariant checking take the record loop, the
        reference implementation (see ``docs/PERFORMANCE.md``).

        Args:
            trace: a :class:`~repro.trace.stream.Trace`, a
                :class:`~repro.trace.columnar.ColumnarTrace`, a chunked
                store trace, or any iterable of records.
            protocol: a protocol instance, or a registry name to build.
            num_caches: machine size when building by name; inferred
                from a materialized trace's sharer ids when omitted.
            trace_name: label for the result (defaults to the trace's).
            context: carry-over first-reference/sharer state for
                segmented simulation of one logical trace (pass the
                same context and protocol instance to every segment).
            protocol_options: forwarded to the protocol factory.
        """
        named = isinstance(trace, (Trace, ColumnarTrace)) or hasattr(trace, "iter_chunks")
        name = trace_name or (trace.name if named else "stream")

        built = self._resolve_protocol(protocol, trace, num_caches, protocol_options)
        result = SimulationResult(scheme=built.name, trace_name=name)
        context = context or SimulationContext()
        if self.check_interval or not named:
            # Invariant checking needs the record loop's per-data-ref
            # cadence; a bare record iterable has no columns to read.
            records = trace.records if named else trace
            return self._run_records(records, built, result, context)
        if isinstance(trace, ColumnarTrace) or getattr(trace, "in_memory", False):
            columns = ColumnarTrace.from_trace(trace)
            # State-table kernels for the exact stock protocols; they
            # bail (return None) on wrappers, mixed or subclassed
            # caches, bounded directories, or any state outside their
            # verified encoding.
            ran = kernel_run(self, columns, built, result, context)
            if ran is not None:
                return ran
            return self._run_columnar(columns, built, result, context)
        return self._run_chunked(columnar_chunks(trace), built, result, context)

    def _run_records(
        self,
        records: Iterable[TraceRecord],
        built: CoherenceProtocol,
        result: SimulationResult,
        context: SimulationContext,
    ) -> SimulationResult:
        """The record loop: one protocol call per data record.

        The reference implementation: simple enough to check by eye,
        and the only path that runs the invariant checker.
        """
        checker = InvariantChecker(built) if self.check_interval else None
        sharer_index = context.sharer_index
        seen_blocks = context.seen_blocks
        seen_add = seen_blocks.add
        data_refs = 0

        # Hoisted per-record overheads: the sharer key resolves to one
        # attrgetter per run instead of a string compare per record,
        # and the sharer -> cache-index mapping uses a plain get instead
        # of allocating a setdefault default.
        sharer_of = attrgetter(self.sharer_key)
        sharer_lookup = sharer_index.get
        block_of = self.block_mapper.block_of
        num_caches_limit = built.num_caches
        on_read = built.on_read
        on_write = built.on_write
        record_outcome = result.record
        instr = RefType.INSTR
        read = RefType.READ

        for record in records:
            context.records_done += 1
            if record.ref_type is instr:
                result.record_instruction()
                continue

            sharer = sharer_of(record)
            cache = sharer_lookup(sharer)
            if cache is None:
                cache = len(sharer_index)
                if cache >= num_caches_limit:
                    raise ConfigurationError(
                        f"trace contains more than num_caches={num_caches_limit} "
                        f"distinct sharers (sharer id {sharer})"
                    )
                sharer_index[sharer] = cache
            block = block_of(record.address)
            first_ref = block not in seen_blocks
            seen_add(block)

            if record.ref_type is read:
                outcome = on_read(cache, block, first_ref)
            else:
                outcome = on_write(cache, block, first_ref)
            record_outcome(outcome)

            data_refs += 1
            if checker is not None and data_refs % self.check_interval == 0:
                checker.check_block(block)

        return result

    def _run_columnar(
        self,
        trace: ColumnarTrace,
        built: CoherenceProtocol,
        result: SimulationResult,
        context: SimulationContext,
    ) -> SimulationResult:
        """The columnar fast path: iterate packed columns, not records.

        Produces a result identical to the record path (the differential
        test in ``tests/test_columnar_differential.py`` holds this for
        every registered protocol): the same protocol calls are made in
        the same order with the same arguments, and accumulation is
        batched only across runs of the *same* shared outcome instance.
        Instruction fetches never reach the protocol and are counted in
        bulk.  ``context.records_done`` is updated once per call, so on
        an exception mid-run the context must be discarded (callers that
        retry — the engine's checkpointed cells — always restart from a
        snapshot).
        """
        instr_count, type_codes, sharer_col, addresses = (
            trace.data_view(self.sharer_key)
        )
        sharer_index = context.sharer_index
        sharer_lookup = sharer_index.get
        seen_blocks = context.seen_blocks
        seen_add = seen_blocks.add
        seen_len = seen_blocks.__len__
        shift = self.block_mapper.offset_bits
        num_caches_limit = built.num_caches
        on_read = built.on_read
        on_write = built.on_write
        record_batch = result.record_batch
        read = TYPE_READ

        # Outcomes are gathered into identity-keyed batches: protocols
        # return shared instances for the hot events (read hits, local
        # write hits, Dragon write updates), so most references collapse
        # into a handful of (outcome, count) pairs that are accumulated
        # once at the end.  Batching is valid because record() is purely
        # additive; keeping the outcome object in the entry pins its id.
        pending: dict[int, list] = {}
        pending_lookup = pending.get
        previous = None
        run_length = 0
        for code, sharer, address in zip(type_codes, sharer_col, addresses):
            cache = sharer_lookup(sharer)
            if cache is None:
                cache = len(sharer_index)
                if cache >= num_caches_limit:
                    raise ConfigurationError(
                        f"trace contains more than num_caches={num_caches_limit} "
                        f"distinct sharers (sharer id {sharer})"
                    )
                sharer_index[sharer] = cache
            block = address >> shift
            before = seen_len()
            seen_add(block)
            if code == read:
                outcome = on_read(cache, block, seen_len() != before)
            else:
                outcome = on_write(cache, block, seen_len() != before)
            if outcome is previous:
                run_length += 1
            elif previous is None:
                previous = outcome
                run_length = 1
            else:
                entry = pending_lookup(id(previous))
                if entry is None:
                    pending[id(previous)] = [previous, run_length]
                else:
                    entry[1] += run_length
                previous = outcome
                run_length = 1
        if previous is not None:
            entry = pending_lookup(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
        for outcome, count in pending.values():
            record_batch(outcome, count)
        result.record_instructions(instr_count)
        context.records_done += len(trace)
        return result

    def _run_chunked(
        self,
        chunks: Iterable[ColumnarTrace],
        built: CoherenceProtocol,
        result: SimulationResult,
        context: SimulationContext,
    ) -> SimulationResult:
        """Bounded-memory simulation of a trace that arrives in chunks.

        When a state-table kernel applies, the protocol state is
        imported into the compact encoding once and stays resident
        across chunks (:class:`~repro.protocols.kernels.KernelSession`);
        otherwise each chunk runs through the generic columnar loop with
        the shared context and result, which — because accumulation is
        purely additive and the context carries all cross-chunk state —
        is exactly one continuous run.  Either way each chunk is dropped
        before the next is asked for, so what is live at once is one
        chunk's columns, the data-only columns the loop derives from
        them (:meth:`ColumnarTrace.data_view`) and the protocol's state.
        """
        session = open_kernel_session(self, built, result, context)
        if session is not None:
            for chunk in chunks:
                session.run_chunk(chunk)
                del chunk  # drop it before the next one decodes
            return session.finish()
        for chunk in chunks:
            self._run_columnar(chunk, built, result, context)
            del chunk  # drop it before the next one decodes
        return result

    def _resolve_protocol(
        self,
        protocol: CoherenceProtocol | str,
        trace: Trace | ColumnarTrace | Iterable[TraceRecord],
        num_caches: int | None,
        options: dict,
    ) -> CoherenceProtocol:
        if not isinstance(protocol, str):
            # A protocol instance — or anything protocol-shaped, such as
            # a CoherentOracle wrapper — is used as-is.
            if options:
                raise ConfigurationError(
                    "protocol options are only valid when building by name"
                )
            return protocol
        if num_caches is None:
            # Any trace that can report its sharer-id sets will do —
            # chunked traces answer from their index without a scan.
            sharers = getattr(
                trace, "pids" if self.sharer_key == "pid" else "cpus", None
            )
            if sharers is None:
                raise ConfigurationError(
                    "num_caches is required when simulating a raw record stream"
                )
            num_caches = max(1, len(sharers))
        return make_protocol(protocol, num_caches, **options)


def simulate(
    trace: Trace | Iterable[TraceRecord],
    protocol: CoherenceProtocol | str,
    num_caches: int | None = None,
    sharer_key: str = "pid",
    block_mapper: BlockMapper | None = None,
    check_invariants: bool | int = False,
    **protocol_options: Any,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`."""
    simulator = Simulator(
        block_mapper=block_mapper,
        sharer_key=sharer_key,
        check_invariants=check_invariants,
    )
    return simulator.run(trace, protocol, num_caches=num_caches, **protocol_options)
