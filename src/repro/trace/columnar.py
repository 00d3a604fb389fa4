"""Columnar trace storage: the simulator's fast-path input format.

A :class:`ColumnarTrace` stores the same information as a
:class:`~repro.trace.stream.Trace`, but as packed parallel columns
(unsigned arrays for cpu/pid/address, each of the narrowest typecode
that holds its values, and ``bytes`` for the reference-type codes and
flag bitmasks) instead of one ``TraceRecord`` object per reference.
That layout cuts memory per record from a ~200-byte dataclass to 8
bytes for a generated trace (one byte each for cpu, pid, type and
flags, four for a 32-bit address) and, more importantly, lets
:meth:`repro.core.simulator.Simulator.run` iterate raw ints at C speed
instead of doing attribute and enum dispatch per record — see
``docs/PERFORMANCE.md`` for the design and the bit-identity guarantee.

Conversion is lossless in both directions: ``ColumnarTrace.from_trace``
/ ``from_records`` pack any record stream, and :meth:`to_records` /
:meth:`to_trace` round-trip back to the record representation.  Binary
trace files load directly into columns via
:func:`repro.trace.io.read_trace_binary_columns` without materializing
records at all.
"""

from __future__ import annotations

from array import array
from itertools import compress, islice
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.store.format import DEFAULT_CHUNK_RECORDS
from repro.trace.record import RefType, TraceRecord
from repro.trace.stream import Trace

#: Integer reference-type codes used by the type column (and the binary
#: file format): instruction fetch, data read, data write.
TYPE_INSTR, TYPE_READ, TYPE_WRITE = 0, 1, 2

_TYPE_TO_CODE = {RefType.INSTR: TYPE_INSTR, RefType.READ: TYPE_READ, RefType.WRITE: TYPE_WRITE}
_CODE_TO_TYPE = (RefType.INSTR, RefType.READ, RefType.WRITE)

#: The columns of a :class:`ColumnarTrace`, in constructor order.
COLUMNS = ("cpu", "pid", "type_code", "address", "flags")

#: (typecode, exclusive bound) of the unsigned array types, narrowest first.
_UNSIGNED = tuple((code, 1 << 8 * array(code).itemsize) for code in "BHIQ")


def narrowest_typecode(largest: int) -> str:
    """The narrowest unsigned array typecode that holds *largest*.

    ``Q`` for anything wider, so appending a value beyond 64 bits (or a
    negative one, to any of them) still raises ``OverflowError``.
    """
    for code, bound in _UNSIGNED:
        if largest < bound:
            return code
    return "Q"


def column_format(column: Any) -> str:
    """The item format of a column: an array's typecode or a view's format.

    ``bytes`` and ``bytearray`` columns are ``"B"``.
    """
    return getattr(column, "typecode", None) or getattr(column, "format", "B")


def narrowed(column: array) -> array:
    """*column* in the narrowest unsigned typecode that holds its values
    (the column itself when that is its own typecode)."""
    code = narrowest_typecode(max(column, default=0))
    return column if code == column.typecode else array(code, column)


def narrow_column(values: Iterable[int]) -> array:
    """*values* as an array of the narrowest unsigned typecode holding them."""
    if isinstance(values, (bytes, bytearray)):
        return array("B", values)
    return narrowed(array("Q", values))


def _selected(column: Any, selectors: bytes) -> array:
    """The items of *column* whose selector is set, in the column's width."""
    return array(column_format(column), compress(column, selectors))


#: Bits of the flags column: system mode, lock access, spin test read.
FLAG_SYSTEM, FLAG_LOCK, FLAG_SPIN = 0x1, 0x2, 0x4

#: flags byte -> (system, lock, spin) record fields.  All 256 bytes are
#: covered: binary trace files carry an unconstrained flags byte.
_FLAG_FIELDS = tuple(
    (bool(flags & FLAG_SYSTEM), bool(flags & FLAG_LOCK), bool(flags & FLAG_SPIN))
    for flags in range(256)
)

#: flags byte -> 1 where it marks a spin reference that is not a lock
#: reference (which :class:`TraceRecord` rejects), else 0.
_SPIN_WITHOUT_LOCK = bytes(
    1 if flags & FLAG_SPIN and not flags & FLAG_LOCK else 0 for flags in range(256)
)


def check_flags(flags: bytes | bytearray) -> None:
    """Reject a flags column :class:`TraceRecord` would refuse to build.

    One C-speed pass, raising the same ``ValueError`` the record
    constructor raises for a spin reference without the lock flag.
    """
    if flags.translate(_SPIN_WITHOUT_LOCK).find(1) != -1:
        raise ValueError("spin references must also be lock references")


def iter_column_records(
    cpu: Iterable[int],
    pid: Iterable[int],
    type_code: Iterable[int],
    address: Iterable[int],
    flags: Iterable[int],
) -> Iterator[TraceRecord]:
    """Build one :class:`TraceRecord` per row of parallel columns.

    Records are built positionally with table lookups for the type and
    flags, and each still runs ``TraceRecord.__post_init__``.
    """
    code_to_type = _CODE_TO_TYPE
    flag_fields = _FLAG_FIELDS
    record = TraceRecord
    for c, p, t, a, f in zip(cpu, pid, type_code, address, flags):
        yield record(c, p, code_to_type[t], a, *flag_fields[f])


class ColumnarTrace:
    """A multiprocessor address trace stored column-wise.

    Attributes:
        name: short identifier (matches :class:`Trace`).
        description: free-form provenance note.
        cpu: per-record issuing CPU numbers (an unsigned ``array``).
        pid: per-record process identifiers (an unsigned ``array``).
        type_code: per-record reference-type codes (``bytes`` of
            :data:`TYPE_INSTR`/:data:`TYPE_READ`/:data:`TYPE_WRITE`).
        address: per-record byte addresses (an unsigned ``array``).
        flags: per-record system/lock/spin bitmasks (``bytes``).

    Each integer column is one array of the narrowest typecode (``B``,
    ``H``, ``I`` or ``Q``) that holds its values, chosen by whoever
    builds it: a generated trace has ``B`` cpu and pid and ``I``
    addresses, a binary file load ``H`` cpu and pid (the file's own
    width), a ``.ctrc`` chunk ``Q`` throughout.  Consumers read the
    width from the column, never assume it, and values (so results and
    fingerprints) do not depend on it.  An array column is kept as
    given; any other iterable is packed at its narrowest width.

    Any column may instead be a ``memoryview`` of its format: a pooled
    sweep moves a trace's columns into shared memory as read-only views
    (:mod:`repro.engine.shm`).
    """

    __slots__ = (
        "name", "description", "cpu", "pid", "type_code", "address", "flags",
        "_data_views",
    )

    def __init__(
        self,
        name: str,
        cpu: Iterable[int],
        pid: Iterable[int],
        type_code: Iterable[int],
        address: Iterable[int],
        flags: Iterable[int] | None = None,
        description: str = "",
    ) -> None:
        self.name = name
        self.description = description
        # memoryview columns are accepted as-is: the shared-memory
        # arena (repro.engine.shm) reconstructs traces as zero-copy
        # views over one mapped segment, so coercing here would defeat
        # the pickle-free dispatch path.
        self.cpu = cpu if isinstance(cpu, (array, memoryview)) else narrow_column(cpu)
        self.pid = pid if isinstance(pid, (array, memoryview)) else narrow_column(pid)
        self.type_code = (
            type_code if isinstance(type_code, memoryview) else bytes(type_code)
        )
        self.address = (
            address
            if isinstance(address, (array, memoryview))
            else narrow_column(address)
        )
        if flags is None:
            self.flags = bytes(len(self.type_code))
        elif isinstance(flags, memoryview):
            self.flags = flags
        else:
            self.flags = bytes(flags)
        lengths = {
            len(self.cpu), len(self.pid), len(self.type_code),
            len(self.address), len(self.flags),
        }
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        if self.type_code and max(self.type_code) > TYPE_WRITE:
            bad = next(
                i for i, code in enumerate(self.type_code) if code > TYPE_WRITE
            )
            raise ValueError(
                f"invalid reference-type code {self.type_code[bad]} at record {bad}"
            )
        self._data_views: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[TraceRecord],
        name: str = "stream",
        description: str = "",
    ) -> "ColumnarTrace":
        """Pack a record stream into columns (one pass, lossless).

        The integer columns are narrowed once the stream ends (see
        :func:`narrowed`).
        """
        cpus = array("Q")
        pids = array("Q")
        types = bytearray()
        addresses = array("Q")
        flags = bytearray()
        type_to_code = _TYPE_TO_CODE
        for record in records:
            cpus.append(record.cpu)
            pids.append(record.pid)
            types.append(type_to_code[record.ref_type])
            addresses.append(record.address)
            flags.append(
                (FLAG_SYSTEM if record.system else 0)
                | (FLAG_LOCK if record.lock else 0)
                | (FLAG_SPIN if record.spin else 0)
            )
        return cls(
            name, narrowed(cpus), narrowed(pids), types, narrowed(addresses), flags,
            description,
        )

    @classmethod
    def from_trace(cls, trace: "Trace | ColumnarTrace") -> "ColumnarTrace":
        """Convert any trace to columnar form (identity if already columnar).

        A :class:`Trace` still holding the columns it was built from
        (its records never materialized) hands them over without a
        copy; otherwise its current records are packed.
        """
        if isinstance(trace, ColumnarTrace):
            return trace
        columns = trace.columns if isinstance(trace, Trace) else None
        if columns is not None:
            if (columns.name, columns.description) == (trace.name, trace.description):
                return columns
            return cls(
                trace.name, columns.cpu, columns.pid, columns.type_code,
                columns.address, columns.flags, trace.description,
            )
        return cls.from_records(
            trace.records,
            name=trace.name,
            description=getattr(trace, "description", ""),
        )

    @classmethod
    def from_binary_file(
        cls, path: str | Path, name: str | None = None
    ) -> "ColumnarTrace":
        """Load a binary-format trace file directly into columns.

        Uses the bulk ``struct.iter_unpack``-based decoder, so no
        per-record ``TraceRecord`` objects are created.
        """
        from repro.trace.io import read_trace_binary_columns

        file_path = Path(path)
        cpus, pids, types, addresses, flags = read_trace_binary_columns(file_path)
        return cls(
            name or file_path.stem, cpus, pids, types, addresses, flags,
            description=f"columnar load of {file_path}",
        )

    @classmethod
    def from_file(cls, path: str | Path, name: str | None = None) -> "ColumnarTrace":
        """Load any trace file (text or binary, auto-detected) as columns."""
        from repro.trace.io import is_binary_trace, read_trace_file

        file_path = Path(path)
        if is_binary_trace(file_path):
            return cls.from_binary_file(file_path, name)
        return cls.from_records(
            read_trace_file(file_path), name=name or file_path.stem,
            description=f"columnar load of {file_path}",
        )

    # ------------------------------------------------------------------
    # Round-trip back to records
    # ------------------------------------------------------------------

    def to_records(self) -> list[TraceRecord]:
        """Materialize the trace as a list of records (exact round-trip)."""
        return list(self)

    def to_trace(self) -> Trace:
        """Materialize as a record-backed :class:`Trace`."""
        return Trace(self.name, self.to_records(), self.description)

    # ------------------------------------------------------------------
    # Sequence behaviour (mirrors Trace)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.type_code)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter_column_records(
            self.cpu, self.pid, self.type_code, self.address, self.flags
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ColumnarTrace(
                self.name,
                self.cpu[index],
                self.pid[index],
                self.type_code[index],
                self.address[index],
                self.flags[index],
                self.description,
            )
        code = self.type_code[index]  # IndexError propagates for bad indices
        return TraceRecord(
            self.cpu[index],
            self.pid[index],
            _CODE_TO_TYPE[code],
            self.address[index],
            *_FLAG_FIELDS[self.flags[index]],
        )

    @property
    def records(self) -> "ColumnarTrace":
        """Sequence view of the records — the trace itself.

        Lets code written against ``trace.records`` (length, slicing,
        iteration) work unchanged; slices stay columnar.
        """
        return self

    @property
    def cpus(self) -> list[int]:
        """Sorted list of CPU numbers appearing in the trace."""
        return sorted(set(self.cpu))

    @property
    def pids(self) -> list[int]:
        """Sorted list of process identifiers appearing in the trace."""
        return sorted(set(self.pid))

    def __getstate__(self):
        # The memoized data views are derived state; rebuilding them in
        # the unpickling process is cheaper than shipping them.  Any
        # memoryview columns (shared-memory-backed traces) are
        # materialized in their own format: a view into another
        # process's segment cannot cross a pickle boundary.
        def materialize(slot, value):
            if not isinstance(value, memoryview):
                return value
            if slot in ("type_code", "flags"):
                return bytes(value)
            column = array(value.format)
            column.frombytes(value.cast("B"))
            return column

        return {
            slot: materialize(slot, getattr(self, slot))
            for slot in self.__slots__
            if slot != "_data_views"
        }

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._data_views = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return (
            self.name == other.name
            and self.cpu == other.cpu
            and self.pid == other.pid
            and self.type_code == other.type_code
            and self.address == other.address
            and self.flags == other.flags
        )

    def drop_flagged(self, flag: int) -> "ColumnarTrace":
        """The references whose flags carry none of *flag*'s bits."""
        unflagged = bytes(0 if flags & flag else 1 for flags in range(256))
        keep = bytes(self.flags).translate(unflagged)
        return ColumnarTrace(
            self.name,
            _selected(self.cpu, keep),
            _selected(self.pid, keep),
            compress(self.type_code, keep),
            _selected(self.address, keep),
            compress(self.flags, keep),
            self.description,
        )

    # ------------------------------------------------------------------
    # Simulation support
    # ------------------------------------------------------------------

    def data_view(self, sharer_key: str) -> tuple[int, bytes, array, array]:
        """Data-reference-only columns for the simulator's hot loop.

        Returns ``(instr_count, type_codes, sharers, addresses)`` where
        the columns cover only data references (instruction fetches
        carry no coherence traffic, so the fast path counts them in
        bulk instead of branching per record).  ``sharers`` is the pid
        or cpu column according to *sharer_key*; both arrays keep their
        column's width.  Views are computed once and cached per sharer
        key.
        """
        view = self._data_views.get(sharer_key)
        if view is None:
            types = self.type_code
            sharer_col = self.pid if sharer_key == "pid" else self.cpu
            # TYPE_INSTR == 0, so the type column is its own selector.
            data_types = bytes(compress(types, types))
            sharers = _selected(sharer_col, types)
            addresses = _selected(self.address, types)
            view = (len(types) - len(data_types), data_types, sharers, addresses)
            self._data_views[sharer_key] = view
        return view


def pack_chunks(
    records: Iterable[TraceRecord], chunk_records: int
) -> Iterator[ColumnarTrace]:
    """Pack a record stream into consecutive chunks of *chunk_records*.

    Only one chunk's records are read ahead, so a stream decoded from a
    file is simulated in bounded memory, and its decode errors surface
    when the chunk holding them is packed.
    """
    iterator = iter(records)
    while True:
        chunk = ColumnarTrace.from_records(islice(iterator, chunk_records))
        if not len(chunk):
            return
        yield chunk
        del chunk  # drop it before the next one is packed


def columnar_chunks(trace: Any, start: int = 0) -> Iterator[ColumnarTrace]:
    """Yield any trace as :class:`ColumnarTrace` chunks from record *start*.

    The one function that tells trace representations apart.  A
    columnar or column-backed trace is one chunk, a view of its columns;
    a ``.ctrc`` store yields its chunks through ``iter_chunks`` from the
    one that holds *start*; anything else (a record list, a lazily read
    file, a bare record iterable) is packed ``DEFAULT_CHUNK_RECORDS`` at
    a time.  Each chunk is dropped before the next is produced.
    """
    if hasattr(trace, "iter_chunks"):
        first, offset = trace.position_of(start)
        for chunk in trace.iter_chunks(first):
            yield _view(chunk, offset)
            offset = 0
            del chunk  # drop it before the next one decodes
        return
    columns = trace.columns if isinstance(trace, Trace) else trace
    if isinstance(columns, ColumnarTrace):
        yield _view(columns, start)
        return
    records = getattr(trace, "records", trace)
    yield from pack_chunks(islice(records, start, None), DEFAULT_CHUNK_RECORDS)


def _view(columns: ColumnarTrace, start: int) -> ColumnarTrace:
    """*columns* from record *start* on, sharing their buffers."""
    if not start:
        return columns
    views = (memoryview(getattr(columns, name))[start:] for name in COLUMNS)
    return ColumnarTrace(columns.name, *views, description=columns.description)


def columnar_trace(trace: "Trace | ColumnarTrace | Iterable[TraceRecord]") -> ColumnarTrace:
    """Coerce any trace or record stream to :class:`ColumnarTrace`."""
    if isinstance(trace, ColumnarTrace):
        return trace
    if isinstance(trace, Trace):
        return ColumnarTrace.from_trace(trace)
    return ColumnarTrace.from_records(trace)
