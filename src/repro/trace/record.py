"""Trace records: the unit of input for every simulation.

A trace is an ordered sequence of :class:`TraceRecord` objects, each
describing one memory reference made by one CPU on behalf of one
process.  The format mirrors what the paper's multiprocessor ATUM
traces provide (Section 4.4): interleaved per-CPU address streams
annotated with CPU number and process identifier, preserving the global
temporal order of references.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class RefType(enum.Enum):
    """The kind of memory reference a trace record describes."""

    INSTR = "instr"
    READ = "read"
    WRITE = "write"

    @property
    def is_data(self) -> bool:
        """True for data reads and writes, False for instruction fetches."""
        return self is not RefType.INSTR

    @property
    def short(self) -> str:
        """One-letter code used by the text trace format (``i``/``r``/``w``)."""
        return _SHORT_CODES[self]


_SHORT_CODES = {RefType.INSTR: "i", RefType.READ: "r", RefType.WRITE: "w"}
_FROM_SHORT = {code: ref for ref, code in _SHORT_CODES.items()}

#: Exclusive upper bound of cpu, pid and address (unsigned 64-bit).
_LIMIT = 1 << 64


def ref_type_from_code(code: str) -> RefType:
    """Parse a one-letter reference-type code (``i``, ``r``, or ``w``)."""
    try:
        return _FROM_SHORT[code]
    except KeyError:
        raise ValueError(f"unknown reference type code: {code!r}") from None


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One memory reference in a multiprocessor address trace.

    Attributes:
        cpu: physical processor that issued the reference (0-based).
        pid: identifier of the process running on that CPU.
        ref_type: instruction fetch, data read, or data write.
        address: byte address referenced.
        system: True if the reference was made in system (OS) mode.
        lock: True if the reference is part of a lock access — the
            initial "test" reads of a test-and-test-and-set primitive
            and the test-and-set write itself.  Used by the Section 5.2
            spin-lock filter; ordinary references leave it False.
        spin: True only for the repeated *test* reads while spinning on
            a held lock (a subset of ``lock`` references).  The paper's
            Section 5.2 experiment removes exactly these.
    """

    cpu: int
    pid: int
    ref_type: RefType
    address: int
    system: bool = False
    lock: bool = field(default=False)
    spin: bool = field(default=False)

    def __post_init__(self) -> None:
        # Fields must fit the 64-bit columns every trace is packed into.
        if not 0 <= self.cpu < _LIMIT:
            raise ValueError(f"cpu must be in [0, 2**64), got {self.cpu}")
        if not 0 <= self.pid < _LIMIT:
            raise ValueError(f"pid must be in [0, 2**64), got {self.pid}")
        if not 0 <= self.address < _LIMIT:
            raise ValueError(f"address must be in [0, 2**64), got {self.address}")
        if self.spin and not self.lock:
            raise ValueError("spin references must also be lock references")

    @property
    def is_data(self) -> bool:
        """True for data reads/writes; instruction fetches are excluded."""
        return self.ref_type.is_data

    @property
    def is_read(self) -> bool:
        """True for read events/references."""
        return self.ref_type is RefType.READ

    @property
    def is_write(self) -> bool:
        """True for write events/references."""
        return self.ref_type is RefType.WRITE

    def with_cpu(self, cpu: int) -> "TraceRecord":
        """Return a copy of this record attributed to a different CPU."""
        return replace(self, cpu=cpu)

    def with_pid(self, pid: int) -> "TraceRecord":
        """Return a copy of this record attributed to a different process."""
        return replace(self, pid=pid)


def is_data(record: TraceRecord) -> bool:
    """Predicate form of :attr:`TraceRecord.is_data` (handy for ``filter``)."""
    return record.is_data


def data_refs(records) -> "list[TraceRecord] | object":
    """Yield only the data (read/write) references of a record stream."""
    return (record for record in records if record.is_data)
