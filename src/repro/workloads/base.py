"""The synthetic workload generator.

:class:`SyntheticWorkload` runs a deterministic round-robin scheduler
over ``num_processes`` process state machines and materializes the
interleaved reference stream as a :class:`~repro.trace.stream.Trace`.
Each process mixes:

* instruction fetches (sequential per-process code, shared kernel text
  in system mode);
* private data reads/writes over a hot-set working set;
* reads of a shared read-mostly region, occasionally updated by a
  writer (one-writer/many-readers invalidations);
* migratory read-modify-write objects (the dominant source of
  dirty-block hand-offs);
* single-producer/multi-consumer buffers;
* test-and-test-and-set critical sections around shared protected
  data, with blocked processes emitting spin reads every turn;
* OS activity: a configurable fraction of work runs in system mode
  against kernel-private and kernel-shared data;
* rare process migration between CPUs (visible only under the
  processor-sharing view).

Every knob lives in :class:`WorkloadConfig`; the POPS/THOR/PERO
analogue configurations are in their own modules.

The process state machines append straight into packed columns (see
:class:`~repro.trace.columnar.ColumnarTrace`), one scheduling quantum
per call.  :meth:`SyntheticWorkload.build` wraps them in a
:class:`~repro.trace.stream.Trace` that builds its
:class:`~repro.trace.record.TraceRecord` objects only when a caller reads
them; :class:`WorkloadStream` hands out each scheduling round's columns,
or its records, as it generates.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.errors import ConfigurationError
from repro.trace.columnar import (
    FLAG_LOCK,
    FLAG_SPIN,
    FLAG_SYSTEM,
    TYPE_INSTR,
    TYPE_READ,
    TYPE_WRITE,
    ColumnarTrace,
    check_flags,
    iter_column_records,
)
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace
from repro.workloads.layout import MAX_PROCESSES, AddressSpaceLayout
from repro.workloads.locks import LockTable
from repro.workloads.patterns import LocalityPicker, ProducerConsumerBuffers


@dataclass(frozen=True)
class WorkloadConfig:
    """All parameters of one synthetic workload.

    Probabilities prefixed ``p_`` select the action of one data step
    and are evaluated in order (lock attempt, shared read, shared
    update, migratory episode, buffer access); the remaining mass goes
    to private data.  See module docstring for the behaviours.
    """

    name: str = "synthetic"
    num_processes: int = 4
    length: int = 200_000
    seed: int = 1988
    quantum: int = 6

    instr_fraction: float = 0.497
    system_fraction: float = 0.10

    p_lock_attempt: float = 0.012
    p_shared_read: float = 0.075
    p_shared_update: float = 0.0035
    p_migratory: float = 0.016
    p_buffer: float = 0.030

    write_fraction_private: float = 0.24
    write_fraction_protected: float = 0.35
    migratory_read_first: float = 0.85
    buffer_consume_fraction: float = 0.70

    num_locks: int = 4
    hot_lock_bias: float = 0.5
    cs_data_refs: int = 6
    #: Spin test reads emitted per blocked scheduling step.  Fractional
    #: values emit probabilistically (a slow spin loop with several
    #: instructions per test): a step emits ``int(rate)`` reads, plus one
    #: with probability ``rate - int(rate)``.  A step that draws no read
    #: emits nothing at all, not even an instruction fetch.
    spin_reads_per_step: float = 1.0

    #: Within a critical section, fraction of protected-data references
    #: that go to the single block this holder focuses on (the rest
    #: spread over the lock's whole protected region).
    cs_focus: float = 0.8

    num_buffers: int = 4
    blocks_per_buffer: int = 8

    migration_interval: int = 4000
    p_migrate: float = 0.05

    layout: AddressSpaceLayout = field(default_factory=AddressSpaceLayout)
    description: str = ""

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ConfigurationError("num_processes must be >= 1")
        if self.num_processes > MAX_PROCESSES:
            raise ConfigurationError(
                f"num_processes must be <= {MAX_PROCESSES}: beyond that the "
                "per-process address regions overlap"
            )
        if self.length < 1:
            raise ConfigurationError("length must be >= 1")
        if self.quantum < 1:
            raise ConfigurationError("quantum must be >= 1")
        if not 0.0 <= self.instr_fraction < 1.0:
            raise ConfigurationError("instr_fraction must be in [0, 1)")
        if not 0.0 <= self.system_fraction <= 1.0:
            raise ConfigurationError("system_fraction must be in [0, 1]")
        action_mass = (
            self.p_lock_attempt
            + self.p_shared_read
            + self.p_shared_update
            + self.p_migratory
            + self.p_buffer
        )
        if action_mass > 1.0:
            raise ConfigurationError(
                f"action probabilities sum to {action_mass:.3f} > 1"
            )
        if self.num_locks < 0:
            raise ConfigurationError("num_locks must be non-negative")
        if self.p_lock_attempt > 0 and self.num_locks == 0:
            raise ConfigurationError("lock attempts require num_locks >= 1")
        if self.cs_data_refs < 1:
            raise ConfigurationError("cs_data_refs must be >= 1")
        if self.spin_reads_per_step <= 0:
            raise ConfigurationError("spin_reads_per_step must be positive")

    def scaled_to(self, length: int) -> "WorkloadConfig":
        """The same workload at a different trace length."""
        return replace(self, length=length)


#: Flags of a spinning test read of a lock word.
_SPIN = FLAG_LOCK | FLAG_SPIN


class _Columns:
    """The generated reference stream, one packed column per field.

    ``flushed`` counts rows a streaming consumer has already taken and
    cleared, so :attr:`total` is the number of rows generated so far.
    """

    __slots__ = ("cpu", "pid", "type_code", "address", "flags", "flushed")

    def __init__(self) -> None:
        self.cpu = array("Q")
        self.pid = array("Q")
        self.type_code = bytearray()
        self.address = array("Q")
        self.flags = bytearray()
        self.flushed = 0

    def fields(self) -> tuple:
        return (self.cpu, self.pid, self.type_code, self.address, self.flags)

    @property
    def total(self) -> int:
        return self.flushed + len(self.type_code)

    def truncate(self, length: int) -> None:
        """Drop rows beyond *length* total rows (a round's overshoot)."""
        excess = self.total - length
        if excess > 0:
            for column in self.fields():
                del column[-excess:]

    def clear(self) -> None:
        """Forget the buffered rows after a consumer has taken them."""
        self.flushed += len(self.type_code)
        for column in self.fields():
            del column[:]


class _Process:
    """One process's state machine; appends its references to the columns.

    :meth:`run` executes a whole scheduling quantum in one loop.  It
    appends only the type, address and flags columns: the scheduler
    fills ``cpu`` and ``pid`` once per quantum, since migration happens
    only between rounds.
    """

    def __init__(
        self, workload: "SyntheticWorkload", pid: int, columns: _Columns
    ) -> None:
        config = workload.config
        layout = config.layout
        self.workload = workload
        self.config = config
        self.pid = pid
        self.cpu = pid % max(1, config.num_processes)
        self.rng = rng = random.Random((config.seed << 8) ^ (pid * 0x9E3779B1))
        self.instr_offset = pid * 17
        self.kernel_instr_offset = pid * 31
        self.blocked_on = None  # Lock instance while spinning
        self.cs_remaining = 0
        self.cs_base = 0  # address of block 0 of the held lock's data
        self.cs_focus_address = 0  # the block this holder focuses on
        self.held_lock = None
        self.pending_write = None  # (address, flags) for read-modify-write
        self.produced_buffers = workload.buffers.buffers_produced_by(pid)
        self.produce_slot = 0

        # Per-process constants, hoisted off the per-reference path (the
        # layout checks the pid here, once).
        self.instr_base = layout.instr_address(pid, 0)
        self.kernel_text_base = layout.kernel_text_address(0)
        # Emitting f/(1-f) instructions per data reference yields an
        # instruction fraction of f overall; the ratio exceeds one when
        # instructions outnumber data references.
        fraction = config.instr_fraction
        ratio = fraction / (1.0 - fraction)
        self.emits_instr = fraction > 0.0
        self.instr_whole = int(ratio)
        self.instr_fractional = ratio - int(ratio)

        self._type_column = columns.type_code.append
        self._address_column = columns.address.append
        self._flags_column = columns.flags.append

        # Everything run() reads per step, unpacked once per quantum.
        spin_rate = config.spin_reads_per_step
        p_hot, hot_blocks, private_blocks = LocalityPicker(
            layout.private_blocks
        ).draw_parameters
        self._constants = (
            rng.random,
            rng.getrandbits,
            self._type_column,
            self._address_column,
            self._flags_column,
            config.system_fraction,
            config.p_lock_attempt,
            config.p_shared_read,
            config.p_shared_update,
            config.p_migratory,
            config.p_buffer,
            config.num_locks,
            config.write_fraction_private,
            config.cs_focus,
            config.write_fraction_protected,
            int(spin_rate),
            spin_rate - int(spin_rate),
            self.emits_instr,
            self.instr_whole,
            self.instr_fractional,
            self.instr_base,
            self.kernel_text_base,
            layout.private_address(pid, 0),
            layout.kernel_private_address(pid, 0),
            layout.block_bytes,
            p_hot,
            hot_blocks,
            hot_blocks.bit_length(),
            private_blocks,
            private_blocks.bit_length(),
            layout.kernel_private_blocks,
            layout.kernel_private_blocks.bit_length(),
            layout.protected_blocks_per_lock,
            layout.protected_blocks_per_lock.bit_length(),
        )

    # ------------------------------------------------------------------
    # One scheduling quantum: one data action per step
    # ------------------------------------------------------------------

    def run(self, steps: range) -> None:
        """Execute one scheduling quantum: one data action per step.

        Single-reference actions (private and critical-section accesses,
        a read-modify-write's pending write, a one-read spin step) share
        the emission tail at the bottom of the loop; rare and
        multi-reference actions call their helpers.  The RNG draws and
        float comparisons keep the order the pinned fingerprints fix:
        the action cascade subtracts each probability in turn, and each
        inlined bounded draw is CPython's ``randrange(n)`` —
        ``getrandbits(n.bit_length())``, redrawn while ``>= n``.
        """
        (
            random,
            getrandbits,
            type_append,
            address_append,
            flags_append,
            system_fraction,
            p_lock_attempt,
            p_shared_read,
            p_shared_update,
            p_migratory,
            p_buffer,
            num_locks,
            write_fraction_private,
            cs_focus,
            write_fraction_protected,
            spin_whole,
            spin_fractional,
            emits_instr,
            instr_whole,
            instr_fractional,
            instr_base,
            kernel_text_base,
            private_base,
            kernel_private_base,
            block_bytes,
            p_hot,
            hot_blocks,
            hot_bits,
            private_blocks,
            private_bits,
            kernel_private_blocks,
            kernel_private_bits,
            protected_blocks,
            protected_bits,
        ) = self._constants
        for _ in steps:
            lock = self.blocked_on
            if lock is not None:
                if lock.holder is None:
                    # The test finally succeeds: test read, then test-and-set.
                    self.blocked_on = None
                    self._acquire(lock)
                    continue
                count = spin_whole + 1 if random() < spin_fractional else spin_whole
                if count != 1:
                    self._spin(lock, count)
                    continue
                address = lock.address
                code = TYPE_READ
                flags = _SPIN
            elif self.pending_write is not None:
                address, flags = self.pending_write
                self.pending_write = None
                code = TYPE_WRITE
            elif self.cs_remaining:
                self.cs_remaining -= 1
                if not self.cs_remaining:
                    self._release()
                    continue
                if random() < cs_focus:
                    address = self.cs_focus_address
                else:
                    block = getrandbits(protected_bits)
                    while block >= protected_blocks:
                        block = getrandbits(protected_bits)
                    address = self.cs_base + block * block_bytes
                code = TYPE_WRITE if random() < write_fraction_protected else TYPE_READ
                flags = 0
            else:
                flags = FLAG_SYSTEM if random() < system_fraction else 0
                roll = random()
                if not flags and roll < p_lock_attempt and num_locks:
                    self._attempt_lock()
                    continue
                roll -= p_lock_attempt
                if roll < p_shared_read:
                    self._shared_access(False, flags)
                    continue
                roll -= p_shared_read
                if roll < p_shared_update:
                    self._shared_access(True, flags)
                    continue
                roll -= p_shared_update
                if roll < p_migratory:
                    self._migratory_episode(flags)
                    continue
                roll -= p_migratory
                if roll < p_buffer:
                    self._buffer_access(flags)
                    continue
                # Private data: kernel-private in system mode, else the
                # hot-set picker over the process's own blocks.
                if flags:
                    block = getrandbits(kernel_private_bits)
                    while block >= kernel_private_blocks:
                        block = getrandbits(kernel_private_bits)
                    address = kernel_private_base + block * block_bytes
                else:
                    if random() < p_hot:
                        block = getrandbits(hot_bits)
                        while block >= hot_blocks:
                            block = getrandbits(hot_bits)
                    else:
                        block = getrandbits(private_bits)
                        while block >= private_blocks:
                            block = getrandbits(private_bits)
                    address = private_base + block * block_bytes
                code = TYPE_WRITE if random() < write_fraction_private else TYPE_READ

            # The emission tail: instruction fetches, then the reference.
            if emits_instr:
                fetches = instr_whole
                if random() < instr_fractional:
                    fetches += 1
                if flags & FLAG_SYSTEM:
                    offset = self.kernel_instr_offset
                    while fetches:
                        offset = (offset + 1) % 4096
                        type_append(TYPE_INSTR)
                        address_append(kernel_text_base + 4 * offset)
                        flags_append(FLAG_SYSTEM)
                        fetches -= 1
                    self.kernel_instr_offset = offset
                else:
                    offset = self.instr_offset
                    while fetches:
                        offset = (offset + 1) % 2048
                        type_append(TYPE_INSTR)
                        address_append(instr_base + 4 * offset)
                        flags_append(0)
                        fetches -= 1
                    self.instr_offset = offset
            type_append(code)
            address_append(address)
            flags_append(flags)

    # ------------------------------------------------------------------
    # Rare and multi-reference actions
    # ------------------------------------------------------------------

    def _emit_data(self, address: int, is_write: bool, flags: int) -> None:
        """One data reference (flags carry system/lock/spin), preceded by
        its share of instruction fetches; :meth:`run`'s tail inlined."""
        if self.emits_instr:
            fetches = self.instr_whole
            if self.rng.random() < self.instr_fractional:
                fetches += 1
            system = flags & FLAG_SYSTEM
            for _ in range(fetches):
                if system:
                    self.kernel_instr_offset = (self.kernel_instr_offset + 1) % 4096
                    fetch = self.kernel_text_base + 4 * self.kernel_instr_offset
                else:
                    self.instr_offset = (self.instr_offset + 1) % 2048
                    fetch = self.instr_base + 4 * self.instr_offset
                self._type_column(TYPE_INSTR)
                self._address_column(fetch)
                self._flags_column(system)
        self._type_column(TYPE_WRITE if is_write else TYPE_READ)
        self._address_column(address)
        self._flags_column(flags)

    def _spin(self, lock, count: int) -> None:
        """A blocked step with other than one test read of *lock*."""
        for _ in range(count):
            self._emit_data(lock.address, False, _SPIN)

    def _acquire(self, lock) -> None:
        # Successful test read followed by the test-and-set write.
        self._emit_data(lock.address, False, FLAG_LOCK)
        self._emit_data(lock.address, True, FLAG_LOCK)
        lock.acquire(self.pid)
        self.held_lock = lock
        self.cs_remaining = self.config.cs_data_refs
        layout = self.config.layout
        self.cs_base = layout.protected_address(lock.index, 0)
        self.cs_focus_address = layout.protected_address(
            lock.index, self.rng.randrange(layout.protected_blocks_per_lock)
        )

    def _release(self) -> None:
        # Release: a write to the lock word.
        lock = self.held_lock
        self._emit_data(lock.address, True, FLAG_LOCK)
        lock.release(self.pid)
        self.held_lock = None

    def _attempt_lock(self) -> None:
        config = self.config
        if self.rng.random() < config.hot_lock_bias:
            lock = self.workload.locks[0]
        else:
            lock = self.workload.locks[self.rng.randrange(config.num_locks)]
        # A free-running process holds no lock: every acquisition runs
        # its critical section to the release before the next attempt.
        if lock.held:
            # Failed test: start spinning.
            lock.waiters.add(self.pid)
            self.blocked_on = lock
            self._emit_data(lock.address, False, _SPIN)
        else:
            self._acquire(lock)

    def _shared_access(self, is_write: bool, system: int) -> None:
        layout = self.config.layout
        if system:
            block = self.rng.randrange(layout.kernel_shared_blocks)
            address = layout.kernel_shared_address(block)
        else:
            block = self.workload.shared_picker.pick(self.rng)
            address = layout.shared_read_address(block)
        self._emit_data(address, is_write, system)

    def _migratory_episode(self, system: int) -> None:
        layout = self.config.layout
        block = self.rng.randrange(layout.migratory_blocks)
        address = layout.migratory_address(block)
        if self.rng.random() < self.config.migratory_read_first:
            # Read-modify-write: read now, write on the next step.
            self._emit_data(address, False, system)
            self.pending_write = (address, system)
        else:
            self._emit_data(address, True, system)

    def _buffer_access(self, system: int) -> None:
        layout = self.config.layout
        buffers = self.workload.buffers
        consume = (
            not self.produced_buffers
            or self.rng.random() < self.config.buffer_consume_fraction
        )
        if consume:
            # Consumers favour "their" neighbour's buffer, keeping most
            # producer invalidations single-cache (cf. paper Figure 1).
            if self.rng.random() < 0.75:
                buffer = (self.pid + 1) % buffers.num_buffers
            else:
                buffer = buffers.random_buffer(self.rng)
            if buffers.producer_of(buffer) == self.pid and buffers.num_buffers > 1:
                buffer = (buffer + 1) % buffers.num_buffers
            slot = buffers.random_slot(self.rng)
            address = layout.buffer_address(buffers.block_index(buffer, slot))
            self._emit_data(address, False, system)
        else:
            buffer = self.produced_buffers[
                self.produce_slot // buffers.blocks_per_buffer % len(self.produced_buffers)
            ]
            slot = self.produce_slot % buffers.blocks_per_buffer
            self.produce_slot += 1
            address = layout.buffer_address(buffers.block_index(buffer, slot))
            self._emit_data(address, True, system)


class SyntheticWorkload:
    """Builds a deterministic synthetic trace from a configuration."""

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.locks = LockTable(config.num_locks, config.layout)
        self.buffers = ProducerConsumerBuffers(
            num_buffers=config.num_buffers,
            blocks_per_buffer=config.blocks_per_buffer,
            num_processes=config.num_processes,
        )
        self.shared_picker = LocalityPicker(config.layout.shared_read_blocks)

    def _maybe_migrate(self, processes: list[_Process]) -> None:
        """Occasionally swap the CPUs of two processes (§4.4 migration)."""
        if len(processes) < 2 or self.rng.random() >= self.config.p_migrate:
            return
        first, second = self.rng.sample(range(len(processes)), 2)
        processes[first].cpu, processes[second].cpu = (
            processes[second].cpu,
            processes[first].cpu,
        )

    def _rounds(self, columns: _Columns) -> Iterator[None]:
        """Run the round-robin scheduler, appending to *columns*.

        Yields after every scheduling round; the consumer may take and
        :meth:`~_Columns.clear` the round's rows before resuming.  The
        final round can overshoot mid-quantum, so the rows are cut at
        ``config.length`` before each yield.
        """
        config = self.config
        length = config.length
        quantum = range(config.quantum)
        processes = [
            _Process(self, pid, columns) for pid in range(config.num_processes)
        ]
        # cpu and pid are constant over a quantum, and both lie in
        # range(num_processes): fill them from one-row arrays.
        one_row = [array("Q", (value,)) for value in range(config.num_processes)]
        type_code = columns.type_code
        cpu_extend = columns.cpu.extend
        pid_extend = columns.pid.extend
        next_migration = config.migration_interval
        while columns.total < length:
            stop = length - columns.flushed
            for process in processes:
                start = len(type_code)
                process.run(quantum)
                end = len(type_code)
                cpu_extend(one_row[process.cpu] * (end - start))
                pid_extend(one_row[process.pid] * (end - start))
                if end >= stop:
                    break
            if columns.total >= next_migration:
                self._maybe_migrate(processes)
                next_migration += config.migration_interval
            columns.truncate(length)
            yield

    def iter_columns(self) -> Iterator[tuple]:
        """Stream the trace one scheduling round at a time.

        Yields each round's ``(cpu, pid, type_code, address, flags)``
        columns; they are cleared when the next round is requested, so
        a consumer copies what it keeps.  Concatenated, the rounds are
        exactly the columns :meth:`build` produces — both drive the same
        generator — and buffered rows are bounded by one round
        (``num_processes * quantum`` data actions plus their instruction
        fetches), so a trace of any length streams at bounded memory.
        The flags are not validated here; :meth:`build` and
        :func:`~repro.store.writer.write_stream` run
        :func:`~repro.trace.columnar.check_flags`.  One workload
        instance supports one iteration at a time.
        """
        columns = _Columns()
        for _ in self._rounds(columns):
            yield columns.fields()
            columns.clear()

    def build(self) -> Trace:
        """Generate the full trace (deterministic for a given config).

        The returned trace holds the generated columns; its records are
        built on first access, and :meth:`ColumnarTrace.from_trace`
        adopts the columns without copying until then.
        """
        config = self.config
        columns = _Columns()
        for _ in self._rounds(columns):
            pass
        check_flags(columns.flags)
        return Trace.from_columns(
            ColumnarTrace(
                config.name,
                *columns.fields(),
                description=config.description
                or f"synthetic workload ({config.num_processes} processes)",
            )
        )


class WorkloadStream:
    """A workload's trace, generated on demand one round at a time.

    Iterating yields the :class:`~repro.trace.record.TraceRecord` s
    :meth:`SyntheticWorkload.build` would produce; :meth:`iter_columns`
    yields each scheduling round's columns instead, which is what
    :func:`~repro.store.writer.write_stream` consumes.  Every pass runs
    a fresh generator, so the stream can be consumed more than once and
    always yields the same references.
    """

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config

    def __iter__(self) -> "Iterator[TraceRecord]":
        # Each record is built (and validated) as it is yielded.
        for fields in self.iter_columns():
            yield from iter_column_records(*fields)

    def iter_columns(self) -> Iterator[tuple]:
        """Each round's columns (see :meth:`SyntheticWorkload.iter_columns`)."""
        return SyntheticWorkload(self.config).iter_columns()
