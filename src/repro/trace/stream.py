"""Trace containers and stream utilities.

A :class:`Trace` is a named sequence of
:class:`~repro.trace.record.TraceRecord` objects, materialized on first
use when the trace was built from columns.  Simulations accept
any iterable of records, but the named container is convenient for the
multi-trace experiments the paper runs (POPS, THOR, PERO).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
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
    generator's output) holds a
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


def count_records(records: Iterable[TraceRecord]) -> int:
    """Count records in a stream without materializing it."""
    return sum(1 for _ in records)


def take(records: Iterable[TraceRecord], n: int) -> list[TraceRecord]:
    """Materialize the first *n* records of a stream."""
    return list(itertools.islice(records, n))


def merge_streams(
    streams: Sequence[Iterable[tuple[int, TraceRecord]]],
) -> Iterator[TraceRecord]:
    """Merge timestamped per-CPU streams into one global-time-ordered stream.

    Each element of *streams* yields ``(timestamp, record)`` pairs that
    are individually time-ordered.  Ties are broken by stream index so
    the merge is deterministic.  This mirrors how multiprocessor ATUM
    interleaves the per-CPU address streams.
    """
    def keyed(index: int, stream):
        """Tag one stream's items with (timestamp, stream index)."""
        for timestamp, record in stream:
            yield timestamp, index, record

    merged = heapq.merge(*(keyed(i, stream) for i, stream in enumerate(streams)))
    for _timestamp, _index, record in merged:
        yield record


@dataclass
class RoundRobinInterleaver:
    """Interleave per-CPU record streams a fixed quantum at a time.

    A simple deterministic stand-in for hardware trace interleaving:
    pull *quantum* records from each stream in turn until all streams
    are exhausted.  Used by workload generators that produce one stream
    per processor.
    """

    quantum: int = 1

    def __post_init__(self) -> None:
        if self.quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {self.quantum}")

    def interleave(
        self, streams: Sequence[Iterable[TraceRecord]]
    ) -> Iterator[TraceRecord]:
        """Merge streams quantum records at a time."""
        iterators = [iter(stream) for stream in streams]
        live = list(range(len(iterators)))
        while live:
            finished = []
            for index in live:
                for _ in range(self.quantum):
                    try:
                        yield next(iterators[index])
                    except StopIteration:
                        finished.append(index)
                        break
            for index in finished:
                live.remove(index)
