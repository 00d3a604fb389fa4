"""Trace characteristic statistics (paper Table 3).

Table 3 of the paper summarizes each trace as total references,
instruction fetches, data reads, data writes, and the user/system
split.  :func:`compute_statistics` derives the same summary (plus a few
extras used elsewhere in the evaluation: lock/spin counts, per-CPU and
per-process reference counts, and the read/write ratio the paper calls
out in Section 4.4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.trace.columnar import (
    FLAG_LOCK,
    FLAG_SPIN,
    FLAG_SYSTEM,
    TYPE_INSTR,
    TYPE_READ,
    TYPE_WRITE,
    ColumnarTrace,
    columnar_chunks,
)
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace


@dataclass(frozen=True)
class TraceStatistics:
    """Summary of a multiprocessor address trace (cf. paper Table 3)."""

    name: str
    total_refs: int
    instr_refs: int
    data_reads: int
    data_writes: int
    user_refs: int
    system_refs: int
    lock_refs: int
    spin_reads: int
    refs_per_cpu: dict[int, int] = field(default_factory=dict)
    refs_per_pid: dict[int, int] = field(default_factory=dict)

    @property
    def data_refs(self) -> int:
        """Total data (read + write) references."""
        return self.data_reads + self.data_writes

    @property
    def read_write_ratio(self) -> float:
        """Data reads per data write (``inf`` if the trace has no writes)."""
        if self.data_writes == 0:
            return float("inf")
        return self.data_reads / self.data_writes

    @property
    def instr_fraction(self) -> float:
        """Instruction fetches as a fraction of all references."""
        return self.instr_refs / self.total_refs if self.total_refs else 0.0

    @property
    def read_fraction(self) -> float:
        """Data reads as a fraction of all references."""
        return self.data_reads / self.total_refs if self.total_refs else 0.0

    @property
    def write_fraction(self) -> float:
        """Data writes as a fraction of all references."""
        return self.data_writes / self.total_refs if self.total_refs else 0.0

    @property
    def system_fraction(self) -> float:
        """System-mode references as a fraction of all references."""
        return self.system_refs / self.total_refs if self.total_refs else 0.0

    @property
    def spin_read_fraction_of_reads(self) -> float:
        """Spin-lock test reads as a fraction of all data reads (§4.4)."""
        return self.spin_reads / self.data_reads if self.data_reads else 0.0

    def as_table_row(self) -> dict[str, float]:
        """Row matching the columns of paper Table 3 (counts in thousands)."""
        return {
            "trace": self.name,
            "refs_k": self.total_refs / 1000.0,
            "instr_k": self.instr_refs / 1000.0,
            "drd_k": self.data_reads / 1000.0,
            "dwrt_k": self.data_writes / 1000.0,
            "user_k": self.user_refs / 1000.0,
            "sys_k": self.system_refs / 1000.0,
        }


def compute_statistics(
    trace: Trace | ColumnarTrace | Iterable[TraceRecord], name: str = "trace"
) -> TraceStatistics:
    """Compute :class:`TraceStatistics` by counting over columns.

    The columns come a chunk at a time from
    :func:`~repro.trace.columnar.columnar_chunks`, so memory stays
    bounded whatever the trace's representation.
    """
    types = Counter()
    flag_counts = Counter()
    per_cpu: Counter[int] = Counter()
    per_pid: Counter[int] = Counter()
    for chunk in columnar_chunks(trace):
        types.update(bytes(chunk.type_code))
        flag_counts.update(bytes(chunk.flags))
        per_cpu.update(chunk.cpu)
        per_pid.update(chunk.pid)
        del chunk  # drop it before the next one decodes

    def flagged(flag: int) -> int:
        return sum(count for flags, count in flag_counts.items() if flags & flag)

    total = sum(types.values())
    system = flagged(FLAG_SYSTEM)
    return TraceStatistics(
        name=name,
        total_refs=total,
        instr_refs=types[TYPE_INSTR],
        data_reads=types[TYPE_READ],
        data_writes=types[TYPE_WRITE],
        user_refs=total - system,
        system_refs=system,
        lock_refs=flagged(FLAG_LOCK),
        spin_reads=flagged(FLAG_SPIN),
        refs_per_cpu=dict(per_cpu),
        refs_per_pid=dict(per_pid),
    )
