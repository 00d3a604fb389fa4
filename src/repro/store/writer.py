"""Streaming ``.ctrc`` writer: generators in, bounded memory, chunks out.

:class:`StreamingTraceWriter` accepts records (or bulk column slices)
and flushes a chunk to disk every ``chunk_records`` references, so a
workload generator can emit a trace of any length while the writer
holds one chunk's column buffers (26 bytes a record) and, for zlib, one
compressor's state.  A flush streams the columns through the codec into
the file; no joined payload or compressed copy of the chunk is built.
Alongside the chunks it maintains:

* the sharer-id sets (distinct cpus and pids) — stored in the index so
  readers can size machines without scanning the file;
* a streaming content fingerprint
  (:class:`~repro.trace.fingerprint.TraceHasher`) — stored as advisory
  metadata and byte-identical to the in-memory fingerprint;
* per-chunk crc32 checksums over the stored bytes.

Writes land in a ``<path>.tmp`` sibling and are renamed into place on
:meth:`close`, so a crashed or aborted generation never leaves a
half-written file behind under the final name.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from array import array
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import TraceFormatError
from repro.trace.columnar import check_flags, columnar_chunks
from repro.trace.fingerprint import TraceHasher
from repro.trace.record import RefType, TraceRecord

from repro.store.format import (
    CHUNK_CODECS,
    DEFAULT_CHUNK_RECORDS,
    FOOTER,
    HEADER,
    STORE_END_MAGIC,
    STORE_MAGIC,
    STORE_VERSION,
    align8,
)

_TYPE_TO_CODE = {RefType.INSTR: 0, RefType.READ: 1, RefType.WRITE: 2}


class StreamingTraceWriter:
    """Incrementally writes one trace to a ``.ctrc`` file.

    Use as a context manager: a clean exit finalizes the file, an
    exception aborts it (the temporary file is removed and the target
    path is left untouched)::

        with StreamingTraceWriter("big.ctrc", name="pops") as writer:
            for record in generate():
                writer.append(record)

    Args:
        path: destination file (conventionally ``.ctrc``).
        name: trace name stored in the index (defaults to the stem).
        description: free-form provenance note.
        codec: per-chunk storage codec, ``"zlib"`` (default) or
            ``"raw"`` (larger, but readers decode it zero-copy from
            ``mmap``).
        chunk_records: references per chunk — the writer's and every
            reader's memory granule (see ``docs/TRACESTORE.md`` for
            sizing guidance).
        level: zlib compression level (ignored for ``raw``).
    """

    def __init__(
        self,
        path: str | Path,
        name: str | None = None,
        *,
        description: str = "",
        codec: str = "zlib",
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        level: int = 6,
    ) -> None:
        if codec not in CHUNK_CODECS:
            raise ValueError(
                f"unknown chunk codec {codec!r}; supported: {CHUNK_CODECS}"
            )
        if chunk_records < 1:
            raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
        self.path = Path(path)
        self.name = name or self.path.stem
        self.description = description
        self.codec = codec
        self.chunk_records = chunk_records
        self.level = level

        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._handle: Any = open(self._tmp, "wb")
        self._handle.write(HEADER.pack(STORE_MAGIC, STORE_VERSION, 0, 0))
        self._offset = HEADER.size
        self._chunks: list[dict[str, Any]] = []
        self._records = 0
        self._cpus: set[int] = set()
        self._pids: set[int] = set()
        self._hasher = TraceHasher()
        self._closed = False

        self._cpu = array("Q")
        self._pid = array("Q")
        self._address = array("Q")
        self._type = bytearray()
        self._flags = bytearray()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def records_written(self) -> int:
        """References accepted so far (buffered chunk included)."""
        return self._records + len(self._type)

    def append(self, record: TraceRecord) -> None:
        """Append one record, flushing a chunk when the buffer fills."""
        self._cpu.append(record.cpu)
        self._pid.append(record.pid)
        self._address.append(record.address)
        self._type.append(_TYPE_TO_CODE[record.ref_type])
        self._flags.append(
            (1 if record.system else 0)
            | (2 if record.lock else 0)
            | (4 if record.spin else 0)
        )
        if len(self._type) >= self.chunk_records:
            self._flush_chunk()

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Append a run of records."""
        for record in records:
            self.append(record)

    def append_columns(
        self, cpu: Any, pid: Any, type_code: Any, address: Any, flags: Any
    ) -> None:
        """Append a run of parallel columns (the bulk packing path).

        Integer columns of any width are widened to the file's 64-bit
        words in C (see :func:`_words`), so narrow in-memory columns
        write the same bytes as ``Q`` ones.
        """
        lengths = {len(cpu), len(pid), len(type_code), len(address), len(flags)}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        position = 0
        total = len(type_code)
        while position < total:
            take = min(self.chunk_records - len(self._type), total - position)
            stop = position + take
            self._cpu.extend(_words(cpu[position:stop]))
            self._pid.extend(_words(pid[position:stop]))
            self._address.extend(_words(address[position:stop]))
            self._type.extend(type_code[position:stop])
            self._flags.extend(flags[position:stop])
            position = stop
            if len(self._type) >= self.chunk_records:
                self._flush_chunk()

    # ------------------------------------------------------------------
    # Chunk flushing and finalization
    # ------------------------------------------------------------------

    def _flush_chunk(self) -> None:
        count = len(self._type)
        if count == 0:
            return
        if max(self._type) > 2:
            bad = next(i for i, code in enumerate(self._type) if code > 2)
            raise TraceFormatError(
                f"invalid reference-type code {self._type[bad]} at record "
                f"{self._records + bad}",
                path=str(self.path),
                record=self._records + bad,
            )
        self._hasher.update_columns(
            self._cpu, self._pid, self._type, self._address, self._flags
        )
        self._cpus.update(self._cpu)
        self._pids.update(self._pid)

        aligned = align8(self._offset)
        if aligned != self._offset:
            self._handle.write(b"\x00" * (aligned - self._offset))
            self._offset = aligned
        length = 0
        crc = 0
        for piece in self._stored_pieces():
            self._handle.write(piece)
            crc = zlib.crc32(piece, crc)
            length += len(piece)
        self._chunks.append(
            {
                "offset": self._offset,
                "length": length,
                "records": count,
                "crc32": crc & 0xFFFFFFFF,
                "codec": self.codec,
            }
        )
        self._offset += length
        self._records += count

        self._cpu = array("Q")
        self._pid = array("Q")
        self._address = array("Q")
        self._type = bytearray()
        self._flags = bytearray()

    def _stored_pieces(self) -> Iterator[Any]:
        """The buffered chunk's stored bytes, piece by piece.

        Each column buffer goes through the codec as a byte view, so no
        joined payload is built; the pieces concatenate to exactly one
        ``zlib.compress`` of cpu‖pid‖addr‖type‖flags (the format's
        reference, pinned by ``tests/test_store_format.py``).
        """
        if sys.byteorder != "little":  # pragma: no cover - big-endian host
            for column in (self._cpu, self._pid, self._address):
                column.byteswap()
        views = [
            memoryview(column).cast("B")
            for column in (self._cpu, self._pid, self._address, self._type, self._flags)
        ]
        if self.codec == "raw":
            yield from views
            return
        compressor = zlib.compressobj(self.level)
        for view in views:
            yield compressor.compress(view)
        yield compressor.flush()

    def close(self) -> dict[str, Any]:
        """Flush, write the index and footer, and rename into place.

        Returns the index metadata that was written (chunk entries,
        totals, fingerprint).  Idempotent.
        """
        if self._closed:
            return self._meta
        self._flush_chunk()
        meta = {
            "version": STORE_VERSION,
            "name": self.name,
            "description": self.description,
            "records": self._records,
            "chunk_records": self.chunk_records,
            "cpus": sorted(self._cpus),
            "pids": sorted(self._pids),
            "fingerprint": self._hasher.hexdigest(),
            "chunks": self._chunks,
        }
        index_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
        index_offset = align8(self._offset)
        if index_offset != self._offset:
            self._handle.write(b"\x00" * (index_offset - self._offset))
        self._handle.write(index_bytes)
        self._handle.write(
            FOOTER.pack(
                index_offset,
                len(index_bytes),
                zlib.crc32(index_bytes) & 0xFFFFFFFF,
                0,
                STORE_END_MAGIC,
            )
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        os.replace(self._tmp, self.path)
        self._closed = True
        self._meta = meta
        return meta

    def abort(self) -> None:
        """Discard the in-progress file (the target path is untouched)."""
        if self._closed:
            return
        self._closed = True
        self._meta = {}
        try:
            self._handle.close()
        except OSError:
            pass
        try:
            self._tmp.unlink()
        except OSError:
            pass

    def __enter__(self) -> "StreamingTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def _words(values: Any) -> Any:
    """*values* as ``array('Q').extend`` takes them: a ``Q`` array as is
    (one copy), any other width or sequence item by item in C."""
    return values if getattr(values, "typecode", None) == "Q" else iter(values)


def write_stream(
    records: Iterable[TraceRecord],
    path: str | Path,
    name: str | None = None,
    **options: Any,
) -> dict[str, Any]:
    """Stream a record iterable into a ``.ctrc`` file; returns the metadata.

    A source that also has ``iter_columns()`` — a generated workload's
    :class:`~repro.workloads.base.WorkloadStream` — is packed from its
    column rounds instead, with no record built.  Each round's flags
    pass :func:`~repro.trace.columnar.check_flags`, as the record
    constructor would, and a value outside the 64-bit columns raises
    ``OverflowError``; either way no file is left at *path*.
    """
    with StreamingTraceWriter(path, name, **options) as writer:
        iter_columns = getattr(records, "iter_columns", None)
        if iter_columns is None:
            writer.extend(records)
        else:
            for cpu, pid, type_code, address, flags in iter_columns():
                check_flags(flags)
                writer.append_columns(cpu, pid, type_code, address, flags)
    return writer.close()


def pack_trace(trace: Any, path: str | Path, **options: Any) -> dict[str, Any]:
    """Pack any trace representation into a ``.ctrc`` file.

    The columns come a chunk at a time from
    :func:`~repro.trace.columnar.columnar_chunks`, so any trace — in
    memory, chunked, lazily read or a bare record stream — is written in
    bounded memory.  Returns the written index metadata.
    """
    options.setdefault("name", getattr(trace, "name", None))
    options.setdefault("description", getattr(trace, "description", ""))
    with StreamingTraceWriter(path, **options) as writer:
        for chunk in columnar_chunks(trace):
            writer.append_columns(
                chunk.cpu, chunk.pid, chunk.type_code, chunk.address, chunk.flags
            )
            del chunk  # drop it before the next one decodes
    return writer.close()
