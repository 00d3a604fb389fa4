"""Trace containers.

A :class:`Trace` is a named sequence of
:class:`~repro.trace.record.TraceRecord` objects, materialized on first
use when the trace was built from columns.  Simulations accept
any iterable of records, but the named container is convenient for the
multi-trace experiments the paper runs (POPS, THOR, PERO).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.trace.record import TraceRecord

if TYPE_CHECKING:
    from repro.trace.columnar import ColumnarTrace


class Trace:
    """A named multiprocessor address trace.

    Attributes:
        name: short identifier (e.g. ``"pops"``).
        records: the interleaved reference stream, in global time order.
        description: free-form provenance note.

    A trace made by :meth:`from_columns` (the synthetic workload
    generator's output, and an eager trace-file load's) holds a
    :class:`~repro.trace.columnar.ColumnarTrace` and builds its
    :class:`~repro.trace.record.TraceRecord` objects only when
    ``records``, iteration or indexing first asks for them.  The columns
    are released at that point, so a trace never holds both copies;
    until then ``len``, ``cpus``, ``pids``, fingerprinting and
    ``ColumnarTrace.from_trace`` read the columns directly.
    """

    _records: Sequence[TraceRecord] | None = None
    _columns: "ColumnarTrace | None" = None

    def __init__(
        self, name: str, records: Iterable[TraceRecord], description: str = ""
    ) -> None:
        self.name = name
        self.records = records if isinstance(records, (list, tuple)) else list(records)
        self.description = description

    @classmethod
    def from_columns(cls, columns: "ColumnarTrace") -> "Trace":
        """A trace over *columns* (name and description included) whose
        records are built on first access."""
        trace = cls.__new__(cls)
        trace.name = columns.name
        trace.description = columns.description
        trace._columns = columns
        return trace

    @property
    def records(self) -> Sequence[TraceRecord]:
        """The records, built from the columns on first access."""
        if self._records is None:
            self._records = self._columns.to_records()
            self._columns = None
        return self._records

    @records.setter
    def records(self, records: Sequence[TraceRecord]) -> None:
        self._records = records
        self._columns = None

    @property
    def columns(self) -> "ColumnarTrace | None":
        """The columns this trace was built from, until its records exist."""
        return self._columns

    @property
    def in_memory(self) -> bool:
        """False when the records are decoded on every pass (a lazily
        read file) instead of held as columns or a record list."""
        return self._columns is not None or isinstance(self._records, (list, tuple))

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.description, self.records) == (
            other.name, other.description, other.records
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, records={len(self)}, "
            f"description={self.description!r})"
        )

    @property
    def cpus(self) -> list[int]:
        """Sorted list of CPU numbers appearing in the trace."""
        if self._columns is not None:
            return self._columns.cpus
        return sorted({record.cpu for record in self.records})

    @property
    def pids(self) -> list[int]:
        """Sorted list of process identifiers appearing in the trace."""
        if self._columns is not None:
            return self._columns.pids
        return sorted({record.pid for record in self.records})

    def filtered(self, predicate, name: str | None = None) -> "Trace":
        """Return a new trace containing only records matching *predicate*."""
        return Trace(
            name=name or self.name,
            records=[record for record in self.records if predicate(record)],
            description=self.description,
        )

    def head(self, n: int) -> "Trace":
        """Return a trace containing the first *n* records."""
        return Trace(self.name, take(self.records, n), self.description)


def take(records: Iterable[TraceRecord], n: int) -> list[TraceRecord]:
    """Materialize the first *n* records of a stream."""
    return list(itertools.islice(records, n))
