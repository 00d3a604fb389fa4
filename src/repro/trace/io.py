"""Trace serialization: a human-readable text format and a compact binary one.

Text format (one record per line, ``#`` comments allowed)::

    <cpu> <pid> <type> <hex-address> [flags]

where ``<type>`` is ``i``/``r``/``w`` and ``flags`` is any combination
of the letters ``s`` (system mode), ``l`` (lock reference), and ``p``
(spin read).  Example::

    0 12 r 0x00400a10
    1 13 w 0x7ffe0040 s
    2 12 r 0x00500000 lp

The binary format packs each record into a fixed 16-byte little-endian
struct; a small header carries a magic number, version, and record
count, so truncated files are detected.

Paths ending in ``.gz`` are transparently gzip-compressed in both
formats.
"""

from __future__ import annotations

import gzip
import io
import itertools
import struct
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.chunked import ChunkedTrace

from repro.errors import TraceFormatError
from repro.store.format import DEFAULT_CHUNK_RECORDS
from repro.trace.columnar import (
    FLAG_LOCK,
    FLAG_SPIN,
    FLAG_SYSTEM,
    TYPE_WRITE,
    ColumnarTrace,
    pack_chunks,
)
from repro.trace.record import RefType, TraceRecord, ref_type_from_code
from repro.trace.stream import Trace

#: Malformed lines tolerated by default in lenient decode mode.
DEFAULT_ERROR_BUDGET = 100

_BINARY_MAGIC = b"RPTR"
_BINARY_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")  # magic, version, reserved, record count
_RECORD = struct.Struct("<HHBBHQ")  # cpu, pid, type, flags, reserved, address

_TYPE_TO_INT = {RefType.INSTR: 0, RefType.READ: 1, RefType.WRITE: 2}

#: type byte -> 1 where it names no reference type.
_BAD_TYPE = bytes(int(code > TYPE_WRITE) for code in range(256))

#: flags byte -> 1 where no record carries it: a bit beyond
#: system/lock/spin, or a spin reference that is not a lock reference.
_BAD_FLAGS = bytes(
    int(flags > FLAG_SYSTEM | FLAG_LOCK | FLAG_SPIN
        or flags & (FLAG_SPIN | FLAG_LOCK) == FLAG_SPIN)
    for flags in range(256)
)


def _format_flags(record: TraceRecord) -> str:
    flags = ""
    if record.system:
        flags += "s"
    if record.lock:
        flags += "l"
    if record.spin:
        flags += "p"
    return flags


def _parse_flags(text: str) -> tuple[bool, bool, bool]:
    system = lock = spin = False
    for char in text:
        if char == "s":
            system = True
        elif char == "l":
            lock = True
        elif char == "p":
            spin = True
        else:
            raise TraceFormatError(f"unknown trace record flag: {char!r}")
    return system, lock, spin


def format_record(record: TraceRecord) -> str:
    """Render one record in the text trace format."""
    line = f"{record.cpu} {record.pid} {record.ref_type.short} 0x{record.address:08x}"
    flags = _format_flags(record)
    if flags:
        line += f" {flags}"
    return line


def parse_record(line: str) -> TraceRecord:
    """Parse one line of the text trace format into a record."""
    fields = line.split()
    if len(fields) not in (4, 5):
        raise TraceFormatError(f"expected 4 or 5 fields, got {len(fields)}: {line!r}")
    try:
        cpu = int(fields[0])
        pid = int(fields[1])
        ref_type = ref_type_from_code(fields[2])
        address = int(fields[3], 16)
    except ValueError as exc:
        raise TraceFormatError(f"malformed trace line {line!r}: {exc}") from exc
    system, lock, spin = _parse_flags(fields[4]) if len(fields) == 5 else (False, False, False)
    try:
        return TraceRecord(
            cpu=cpu, pid=pid, ref_type=ref_type, address=address,
            system=system, lock=lock, spin=spin,
        )
    except ValueError as exc:
        raise TraceFormatError(f"invalid trace record {line!r}: {exc}") from exc


def _is_gzip(path: str | Path) -> bool:
    return str(path).endswith(".gz")


def _open_text(path: str | Path, mode: str):
    if _is_gzip(path):
        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


def _open_binary(path: str | Path, mode: str):
    if _is_gzip(path):
        return gzip.open(path, mode + "b")
    return open(path, mode + "b")


def write_trace_file(
    records: Iterable[TraceRecord],
    path: str | Path,
    *,
    header: Iterable[str] = (),
) -> int:
    """Write records to *path* in the text format.  Returns the record count.

    Args:
        header: optional comment lines written before the records (the
            ``# `` prefix is added here); the golden-reproducer corpus
            uses this to embed provenance metadata that readers skip.
    """
    count = 0
    with _open_text(path, "w") as handle:
        for line in header:
            handle.write(f"# {line}\n")
        for record in records:
            handle.write(format_record(record))
            handle.write("\n")
            count += 1
    return count


@dataclass
class DecodeReport:
    """What a lenient text decode skipped.

    Pass an instance to :func:`read_trace_file` to receive the counts;
    the same object doubles as the error log for user-facing reporting.

    Attributes:
        skipped: number of malformed lines skipped.
        records: number of records successfully decoded.
        errors: the first few skip reasons, ``path:line`` prefixed.
    """

    skipped: int = 0
    records: int = 0
    errors: list[str] = field(default_factory=list)

    _MAX_SAMPLES = 20

    def note(self, error: TraceFormatError) -> None:
        """Record one skipped line."""
        self.skipped += 1
        if len(self.errors) < self._MAX_SAMPLES:
            self.errors.append(str(error))

    def summary(self) -> str:
        """One-line human-readable account of the decode."""
        if not self.skipped:
            return f"{self.records:,} records, no malformed lines"
        return (
            f"{self.records:,} records, skipped {self.skipped:,} malformed "
            f"line{'s' if self.skipped != 1 else ''} "
            f"(first: {self.errors[0] if self.errors else 'n/a'})"
        )


def read_trace_file(
    path: str | Path,
    *,
    lenient: bool = False,
    error_budget: int = DEFAULT_ERROR_BUDGET,
    report: DecodeReport | None = None,
) -> Iterator[TraceRecord]:
    """Lazily read records from a text-format trace file.

    Every parse failure is reported as a :class:`TraceFormatError`
    carrying the file path and 1-based line number (also available as
    the exception's ``path``/``line`` attributes).

    Args:
        lenient: skip malformed lines instead of failing on the first.
        error_budget: in lenient mode, the maximum number of malformed
            lines tolerated before the decode fails anyway; a corrupt
            file should not silently degrade into an empty trace.
        report: optional :class:`DecodeReport` that receives the counts
            of decoded records and skipped lines.
    """
    if error_budget < 0:
        raise ValueError(f"error_budget must be non-negative, got {error_budget}")
    report = report if report is not None else DecodeReport()
    with _open_text(path, "r") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = parse_record(line)
            except TraceFormatError as exc:
                located = TraceFormatError(str(exc), path=str(path), line=line_number)
                if not lenient:
                    raise located from exc
                report.note(located)
                if report.skipped > error_budget:
                    raise TraceFormatError(
                        f"error budget exhausted: {report.skipped} malformed "
                        f"lines exceed the budget of {error_budget} "
                        f"(last: {located})",
                        path=str(path),
                    ) from exc
                continue
            report.records += 1
            yield record


def _pack_record(record: TraceRecord) -> bytes:
    flags = 0
    if record.system:
        flags |= FLAG_SYSTEM
    if record.lock:
        flags |= FLAG_LOCK
    if record.spin:
        flags |= FLAG_SPIN
    return _RECORD.pack(
        record.cpu, record.pid, _TYPE_TO_INT[record.ref_type], flags, 0, record.address
    )


def write_trace_binary(records: Iterable[TraceRecord], path: str | Path) -> int:
    """Write records to *path* in the binary format.  Returns the record count."""
    body = io.BytesIO()
    count = 0
    for record in records:
        body.write(_pack_record(record))
        count += 1
    with _open_binary(path, "w") as handle:
        handle.write(_HEADER.pack(_BINARY_MAGIC, _BINARY_VERSION, 0, count))
        handle.write(body.getvalue())
    return count


#: Records read from a binary body per ``read`` (1 MiB of body).
DECODE_CHUNK_RECORDS = 65_536


def _read_binary_header(handle: IO[bytes]) -> int:
    """Validate the binary header on *handle* and return the record count."""
    header = handle.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise TraceFormatError("truncated binary trace while reading header")
    magic, version, _reserved, count = _HEADER.unpack(header)
    if magic != _BINARY_MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}; not a repro binary trace")
    if version != _BINARY_VERSION:
        raise TraceFormatError(f"unsupported binary trace version {version}")
    return count


def _decode_binary_body(
    handle: IO[bytes], first: int, size: int, count: int
) -> ColumnarTrace:
    """Decode the next *size* records (from record *first*) into columns.

    Each 16-byte ``<HHBBHQ`` record is read as eight little-endian
    halfwords (cpu, pid, ...) and as two 64-bit words (..., address), so
    every column is a strided slice and no record object is built.  The
    columns keep the file's widths: ``H`` cpu and pid, ``Q`` addresses.
    """
    cpus, pids, addresses = array("H"), array("H"), array("Q")
    types, flags = bytearray(), bytearray()
    done = 0
    while done < size:
        want = min(size - done, DECODE_CHUNK_RECORDS)
        body = handle.read(want * _RECORD.size)
        if len(body) < want * _RECORD.size:
            raise TraceFormatError(
                "truncated binary trace (file ends mid-body; header "
                f"promised {count} records)",
                record=first + done + len(body) // _RECORD.size,
            )
        batch_types, batch_flags = body[4::16], body[5::16]
        bad = batch_types.translate(_BAD_TYPE).find(1)
        if bad != -1:
            raise TraceFormatError(
                f"unknown binary reference type code {batch_types[bad]}",
                record=first + done + bad,
            )
        bad = batch_flags.translate(_BAD_FLAGS).find(1)
        if bad != -1:
            raise TraceFormatError(
                f"invalid binary flags byte {batch_flags[bad]:#04x} (bits beyond "
                "system/lock/spin, or spin without lock)",
                record=first + done + bad,
            )
        halves, words = array("H", body), array("Q", body)
        if sys.byteorder == "big":  # pragma: no cover - the file is little-endian
            halves.byteswap()
            words.byteswap()
        cpus += halves[0::8]
        pids += halves[1::8]
        addresses += words[1::2]
        types += batch_types
        flags += batch_flags
        done += want
    return ColumnarTrace("stream", cpus, pids, types, addresses, flags)


def _binary_chunks(
    path: str | Path, chunk_records: int | None
) -> Iterator[ColumnarTrace]:
    """The binary file at *path* as chunks of *chunk_records* (None: one).

    Every chunk comes from :func:`_decode_binary_body`, the only
    binary-body decoder.  Truncation, bad magic, version skew and
    undecodable records are :class:`TraceFormatError` with the path
    attached; body errors also carry the 0-based record index (the
    exception's ``record`` attribute), as text errors carry line numbers.
    """
    with _open_binary(path, "r") as handle:
        try:
            count = _read_binary_header(handle)
            step = chunk_records or max(count, 1)
            for first in range(0, count, step):
                size = min(step, count - first)
                yield _decode_binary_body(handle, first, size, count)
        except TraceFormatError as exc:
            raise TraceFormatError(
                exc.message, path=str(path), record=exc.record
            ) from exc


def read_trace_binary(path: str | Path) -> Iterator[TraceRecord]:
    """Lazily read records from a binary-format trace file.

    The records of :func:`read_trace_chunks`' binary chunks, so they
    carry the same errors.
    """
    for chunk in _binary_chunks(path, DECODE_CHUNK_RECORDS):
        yield from chunk
        del chunk  # drop it before the next one decodes


def is_binary_trace(path: str | Path) -> bool:
    """True when *path* holds a binary-format trace (magic sniffed)."""
    try:
        with _open_binary(path, "r") as handle:
            return handle.read(len(_BINARY_MAGIC)) == _BINARY_MAGIC
    except (OSError, gzip.BadGzipFile):
        return False


def read_trace_chunks(
    path: str | Path,
    chunk_records: int | None,
    *,
    lenient: bool = False,
    error_budget: int = DEFAULT_ERROR_BUDGET,
    report: DecodeReport | None = None,
) -> Iterator[ColumnarTrace]:
    """Decode a text or binary trace file (auto-detected) into columns.

    Yields :class:`ColumnarTrace` chunks of *chunk_records* references
    (the last may be shorter), or the whole file as one chunk when
    *chunk_records* is None.  A binary file decodes straight into
    columns; a text file's :func:`read_trace_file` records (with its
    lenient mode, error budget and *report*) are packed a chunk at a
    time.  Every trace-file load path reads its file here.
    """
    if is_binary_trace(path):
        return _binary_chunks(path, chunk_records)
    records = read_trace_file(
        path, lenient=lenient, error_budget=error_budget, report=report
    )
    return pack_chunks(records, chunk_records)


# ----------------------------------------------------------------------
# Lazy file-backed traces and loading
# ----------------------------------------------------------------------

class _LazyRecords:
    """The records of a :class:`LazyTraceFile`, streamed from its chunks.

    Each pass decodes the file again, so parse errors surface wherever
    the records are actually consumed.  Length and indexing stream too.
    """

    def __init__(self, trace: "LazyTraceFile") -> None:
        self._trace = trace

    def __iter__(self) -> Iterator[TraceRecord]:
        for chunk in self._trace.iter_chunks():
            yield from chunk
            del chunk  # drop it before the next one decodes

    def __len__(self) -> int:
        return sum(len(chunk) for chunk in self._trace.iter_chunks())

    def __getitem__(self, index: int) -> TraceRecord:
        if index < 0:
            raise IndexError("lazy traces do not support negative indexing")
        try:
            return next(itertools.islice(iter(self), index, index + 1))
        except StopIteration:
            raise IndexError(index) from None


class LazyTraceFile(Trace):
    """A :class:`~repro.trace.stream.Trace` backed by an unread file.

    Nothing is parsed until the trace is read, so a malformed file fails
    inside whatever unit consumes it (e.g. one sweep cell) rather than
    up front.  Every pass decodes the file again through
    :meth:`iter_chunks`, which :func:`~repro.trace.columnar.columnar_chunks`
    streams as it streams a ``.ctrc`` store; ``report`` describes the
    latest pass.
    """

    def __init__(
        self,
        path: str | Path,
        name: str | None = None,
        *,
        lenient: bool = False,
        error_budget: int = DEFAULT_ERROR_BUDGET,
    ) -> None:
        self.path = Path(path)
        self.name = name or self.path.stem
        self.description = f"lazily read from {self.path}"
        self.lenient = lenient
        self.error_budget = error_budget
        self.report = DecodeReport()
        self.records = _LazyRecords(self)

    def iter_chunks(self, start: int = 0) -> Iterator[ColumnarTrace]:
        """Decode the file, yielding its chunks from chunk *start* on."""
        self.report = DecodeReport()
        chunks = read_trace_chunks(
            self.path, DEFAULT_CHUNK_RECORDS, lenient=self.lenient,
            error_budget=self.error_budget, report=self.report,
        )
        return itertools.islice(chunks, start, None)

    def position_of(self, record_index: int) -> tuple[int, int]:
        """Map a record index to ``(chunk index, offset in chunk)``."""
        return divmod(record_index, DEFAULT_CHUNK_RECORDS)

    def _distinct(self, column: str) -> list[int]:
        """The sorted values of one integer column, in one pass."""
        values: set[int] = set()
        for chunk in self.iter_chunks():
            values.update(getattr(chunk, column))
            del chunk  # drop it before the next one decodes
        return sorted(values)

    @property
    def cpus(self) -> list[int]:
        """Sorted CPU numbers, read in one pass over the file."""
        return self._distinct("cpu")

    @property
    def pids(self) -> list[int]:
        """Sorted process identifiers, read in one pass over the file."""
        return self._distinct("pid")


def load_trace(
    path: str | Path,
    name: str | None = None,
    *,
    lazy: bool = False,
    lenient: bool = False,
    report: DecodeReport | None = None,
) -> "Trace | ChunkedTrace":
    """Load a trace file (text, binary, or chunked store — auto-detected).

    Args:
        lazy: defer reading; parse errors then surface at iteration
            time (see :class:`LazyTraceFile`).
        lenient: skip malformed text lines within the error budget.
        report: eager text decodes record their skip counts here.

    An eager load decodes the file once into one
    :class:`~repro.trace.columnar.ColumnarTrace` and returns it as a
    column-backed :class:`~repro.trace.stream.Trace`.  Chunked store
    files (``.ctrc``, magic-sniffed) return a
    :class:`~repro.store.chunked.ChunkedTrace` — inherently lazy
    (only the index is read here) and duck-compatible with
    :class:`~repro.trace.stream.Trace`, so every path-taking entry
    point (``repro run``, sweep specs, the fabric) accepts them.
    """
    file_path = Path(path)
    from repro.store.format import is_chunked_trace

    if is_chunked_trace(file_path):
        from repro.store.chunked import ChunkedTrace

        return ChunkedTrace(
            file_path, name, lenient=lenient, report=report
        )
    if lazy:
        return LazyTraceFile(file_path, name, lenient=lenient)
    chunks = read_trace_chunks(file_path, None, lenient=lenient, report=report)
    columns = next(chunks, None) or ColumnarTrace.from_records(())
    columns.name = name or file_path.stem
    return Trace.from_columns(columns)
