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
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.chunked import ChunkedTrace

from repro.errors import TraceFormatError
from repro.trace.record import RefType, TraceRecord, ref_type_from_code
from repro.trace.stream import Trace

#: Malformed lines tolerated by default in lenient decode mode.
DEFAULT_ERROR_BUDGET = 100

_BINARY_MAGIC = b"RPTR"
_BINARY_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")  # magic, version, reserved, record count
_RECORD = struct.Struct("<HHBBHQ")  # cpu, pid, type, flags, reserved, address

_TYPE_TO_INT = {RefType.INSTR: 0, RefType.READ: 1, RefType.WRITE: 2}
_INT_TO_TYPE = {value: key for key, value in _TYPE_TO_INT.items()}

_FLAG_SYSTEM = 0x1
_FLAG_LOCK = 0x2
_FLAG_SPIN = 0x4


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
        flags |= _FLAG_SYSTEM
    if record.lock:
        flags |= _FLAG_LOCK
    if record.spin:
        flags |= _FLAG_SPIN
    return _RECORD.pack(
        record.cpu, record.pid, _TYPE_TO_INT[record.ref_type], flags, 0, record.address
    )


def _unpack_record(buffer: bytes) -> TraceRecord:
    cpu, pid, type_code, flags, _reserved, address = _RECORD.unpack(buffer)
    try:
        ref_type = _INT_TO_TYPE[type_code]
    except KeyError:
        raise TraceFormatError(f"unknown binary reference type code {type_code}") from None
    return TraceRecord(
        cpu=cpu,
        pid=pid,
        ref_type=ref_type,
        address=address,
        system=bool(flags & _FLAG_SYSTEM),
        lock=bool(flags & _FLAG_LOCK),
        spin=bool(flags & _FLAG_SPIN),
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


def _read_exact(handle: IO[bytes], size: int, what: str) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise TraceFormatError(f"truncated binary trace while reading {what}")
    return data


def _read_up_to(handle: IO[bytes], size: int) -> bytes:
    """Read *size* bytes, tolerating short reads; returns what was available."""
    chunks = []
    remaining = size
    while remaining:
        data = handle.read(remaining)
        if not data:
            break
        chunks.append(data)
        remaining -= len(data)
    return b"".join(chunks) if len(chunks) != 1 else chunks[0]


#: Records decoded per bulk ``struct.iter_unpack`` batch (1 MiB of body).
DECODE_CHUNK_RECORDS = 65_536


def _read_binary_header(handle: IO[bytes]) -> int:
    """Validate the binary header on *handle* and return the record count."""
    magic, version, _reserved, count = _HEADER.unpack(
        _read_exact(handle, _HEADER.size, "header")
    )
    if magic != _BINARY_MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}; not a repro binary trace")
    if version != _BINARY_VERSION:
        raise TraceFormatError(f"unsupported binary trace version {version}")
    return count


def _attach_path(exc: TraceFormatError, path: str | Path) -> TraceFormatError:
    """Re-raiseable copy of *exc* with the file path attached."""
    return TraceFormatError(
        exc.message, path=str(path), line=exc.line, record=exc.record
    )


def read_trace_binary(path: str | Path) -> Iterator[TraceRecord]:
    """Lazily read records from a binary-format trace file.

    Records are decoded in bulk with ``struct.iter_unpack`` over
    megabyte-sized chunks rather than one ``read``/``unpack`` pair per
    record.  Truncation, bad magic, version skew, and undecodable
    records are all reported as :class:`TraceFormatError` with the file
    path attached; body errors also carry the 0-based record index (the
    exception's ``record`` attribute), mirroring how text-format errors
    carry line numbers.
    """
    record_size = _RECORD.size
    int_to_type = _INT_TO_TYPE
    with _open_binary(path, "r") as handle:
        try:
            count = _read_binary_header(handle)
            index = 0
            while index < count:
                want = min(count - index, DECODE_CHUNK_RECORDS)
                chunk = _read_up_to(handle, want * record_size)
                complete = len(chunk) // record_size
                if complete < want:
                    raise TraceFormatError(
                        "truncated binary trace (file ends mid-body; header "
                        f"promised {count} records)",
                        record=index + complete,
                    )
                for cpu, pid, type_code, flags, _res, address in _RECORD.iter_unpack(chunk):
                    try:
                        ref_type = int_to_type[type_code]
                    except KeyError:
                        raise TraceFormatError(
                            f"unknown binary reference type code {type_code}",
                            record=index,
                        ) from None
                    yield TraceRecord(
                        cpu=cpu,
                        pid=pid,
                        ref_type=ref_type,
                        address=address,
                        system=bool(flags & _FLAG_SYSTEM),
                        lock=bool(flags & _FLAG_LOCK),
                        spin=bool(flags & _FLAG_SPIN),
                    )
                    index += 1
        except TraceFormatError as exc:
            if exc.path is not None:
                raise
            raise _attach_path(exc, path) from exc


def read_trace_binary_columns(
    path: str | Path,
) -> tuple["array", "array", bytes, "array", bytes]:
    """Decode a binary trace into packed per-field columns in one pass.

    Returns ``(cpus, pids, type_codes, addresses, flags)`` where the
    integer columns are ``array('Q')`` instances and the type/flag
    columns are ``bytes``.  This is the bulk-loading path behind
    :class:`repro.trace.columnar.ColumnarTrace`: each 16-byte record is
    reinterpreted as two little-endian 64-bit words and the fields are
    extracted with integer arithmetic, avoiding a ``TraceRecord``
    allocation per record.  Errors match :func:`read_trace_binary`.
    """
    from array import array

    cpus = array("Q")
    pids = array("Q")
    types = bytearray()
    addresses = array("Q")
    flag_col = bytearray()
    record_size = _RECORD.size
    little_endian = sys.byteorder == "little"
    with _open_binary(path, "r") as handle:
        try:
            count = _read_binary_header(handle)
            index = 0
            while index < count:
                want = min(count - index, DECODE_CHUNK_RECORDS)
                chunk = _read_up_to(handle, want * record_size)
                complete = len(chunk) // record_size
                if complete < want:
                    raise TraceFormatError(
                        "truncated binary trace (file ends mid-body; header "
                        f"promised {count} records)",
                        record=index + complete,
                    )
                if little_endian:
                    # struct layout <HHBBHQ == two native uint64 words on
                    # little-endian hosts: cpu|pid<<16|type<<32|flags<<40,
                    # then the address word.
                    words = array("Q", chunk)
                    heads = words[0::2]
                    addresses.extend(words[1::2])
                    cpus.extend(word & 0xFFFF for word in heads)
                    pids.extend((word >> 16) & 0xFFFF for word in heads)
                    types.extend((word >> 32) & 0xFF for word in heads)
                    flag_col.extend((word >> 40) & 0xFF for word in heads)
                else:  # pragma: no cover - big-endian fallback
                    for cpu, pid, code, flags, _res, address in _RECORD.iter_unpack(chunk):
                        cpus.append(cpu)
                        pids.append(pid)
                        types.append(code)
                        addresses.append(address)
                        flag_col.append(flags)
                index += want
            if types and max(types) > max(_INT_TO_TYPE):
                bad = next(i for i, code in enumerate(types) if code not in _INT_TO_TYPE)
                raise TraceFormatError(
                    f"unknown binary reference type code {types[bad]}", record=bad
                )
        except TraceFormatError as exc:
            if exc.path is not None:
                raise
            raise _attach_path(exc, path) from exc
    return cpus, pids, bytes(types), addresses, bytes(flag_col)


# ----------------------------------------------------------------------
# Format auto-detection and lazy file-backed traces
# ----------------------------------------------------------------------

def is_binary_trace(path: str | Path) -> bool:
    """True when *path* holds a binary-format trace (magic sniffed)."""
    opener = gzip.open if _is_gzip(path) else open
    try:
        with opener(path, "rb") as handle:
            return handle.read(len(_BINARY_MAGIC)) == _BINARY_MAGIC
    except (OSError, gzip.BadGzipFile):
        return False


def read_any_trace_file(
    path: str | Path,
    *,
    lenient: bool = False,
    error_budget: int = DEFAULT_ERROR_BUDGET,
    report: DecodeReport | None = None,
) -> Iterator[TraceRecord]:
    """Lazily read a trace file, auto-detecting text vs binary format."""
    if is_binary_trace(path):
        return read_trace_binary(path)
    return read_trace_file(
        path, lenient=lenient, error_budget=error_budget, report=report
    )


class _LazyRecords:
    """A re-iterable record sequence streamed from a trace file.

    Each iteration re-reads the file, so parse errors surface wherever
    the records are actually consumed — which lets an error-isolated
    sweep contain a corrupt trace inside the failing cell instead of
    dying at load time.  Length and indexing are computed by streaming.
    """

    def __init__(self, path: Path, lenient: bool, error_budget: int) -> None:
        self.path = path
        self.lenient = lenient
        self.error_budget = error_budget
        self._count: int | None = None

    def __iter__(self) -> Iterator[TraceRecord]:
        return read_any_trace_file(
            self.path, lenient=self.lenient, error_budget=self.error_budget
        )

    def __len__(self) -> int:
        if self._count is None:
            self._count = sum(1 for _ in self)
        return self._count

    def __getitem__(self, index: int) -> TraceRecord:
        if index < 0:
            raise IndexError("lazy traces do not support negative indexing")
        try:
            return next(itertools.islice(iter(self), index, index + 1))
        except StopIteration:
            raise IndexError(index) from None


class LazyTraceFile(Trace):
    """A :class:`~repro.trace.stream.Trace` backed by an unread file.

    Nothing is parsed until the records are iterated, so a malformed
    file fails inside whatever unit consumes it (e.g. one sweep cell)
    rather than up front.  Re-iteration re-reads the file.
    """

    def __init__(
        self,
        path: str | Path,
        name: str | None = None,
        *,
        lenient: bool = False,
        error_budget: int = DEFAULT_ERROR_BUDGET,
    ) -> None:
        file_path = Path(path)
        self.name = name or file_path.stem
        self.records = _LazyRecords(file_path, lenient, error_budget)
        self.description = f"lazily read from {file_path}"


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

    Chunked store files (``.ctrc``, magic-sniffed) return a
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
    records = list(read_any_trace_file(file_path, lenient=lenient, report=report))
    return Trace(name or file_path.stem, records)
