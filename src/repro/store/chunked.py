"""``ChunkedTrace``: the memory-mapped reader for ``.ctrc`` store files.

Opening a file validates the header, footer, and crc32-protected index
— never the chunks themselves — so open cost is O(index) regardless of
trace size.  Chunks decode on demand: :meth:`ChunkedTrace.iter_chunks`
yields one :class:`~repro.trace.columnar.ColumnarTrace` per chunk (to
:func:`~repro.trace.columnar.columnar_chunks`, which every
bounded-memory path reads), while indexing and record iteration make
the reader a drop-in for code written against ``trace.records``.
Raw-codec chunks decode zero-copy as ``mmap`` memoryviews; a zlib chunk
inflates into one heap buffer of exactly its raw size.  Every chunk
loop in the package drops the chunk it has consumed before it asks for
the next, so a sequential pass holds one decoded chunk (and whatever
the consumer derives from it, such as the simulator's data-only
columns) at a time.

Corruption anywhere — truncation, bad magic, index damage, a chunk
whose crc32 or payload length disagrees with the index — raises
:class:`~repro.errors.TraceFormatError` naming the chunk index and byte
offset, never a bare ``struct.error``.  In lenient mode corrupt chunks
are skipped within an error budget (mirroring the text decoder's
lenient mode) and their stored bytes are quarantined beside the file
(``<path>.quarantine/chunk-NNNN.bin``) for inspection, the same
preserve-don't-delete policy the result cache applies to corrupt
entries.

A ``ChunkedTrace`` pickles as a tiny ``(path, name)`` handle and
reopens the file on first use in the receiving process — the pooled
execution backends therefore ship chunk *handles* to workers instead
of whole traces, and the OS page cache shares the mapped pages between
them.
"""

from __future__ import annotations

import json
import mmap
import zlib
from bisect import bisect_right
from pathlib import Path
from typing import Any, Iterator

from repro.errors import TraceFormatError
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import DecodeReport
from repro.trace.record import TraceRecord

from repro.store.format import (
    CHUNK_CODECS,
    FOOTER,
    HEADER,
    STORE_END_MAGIC,
    STORE_MAGIC,
    STORE_VERSION,
    ChunkInfo,
    chunk_error,
    decode_chunk_columns,
)

#: Corrupt chunks tolerated by default in lenient mode.
DEFAULT_CHUNK_ERROR_BUDGET = 8


class ChunkedTrace:
    """One ``.ctrc`` trace file, read chunk by chunk.

    Duck-compatible with the in-memory trace types: ``name``,
    ``description``, ``cpus``/``pids``, ``len()``, record iteration,
    indexing, and a ``records`` property returning the trace itself.
    The chunk-level API — :meth:`iter_chunks`, :meth:`chunk`,
    :meth:`position_of` — is what
    :func:`~repro.trace.columnar.columnar_chunks` reads.

    Args:
        path: the ``.ctrc`` file.
        name: override for the trace name stored in the index.
        lenient: skip corrupt chunks (quarantining their bytes) instead
            of failing on the first, within *error_budget*.
        error_budget: corrupt chunks tolerated before a lenient read
            fails anyway.
        report: optional :class:`~repro.trace.io.DecodeReport`
            receiving skip counts and sampled errors in lenient mode.
    """

    def __init__(
        self,
        path: str | Path,
        name: str | None = None,
        *,
        lenient: bool = False,
        error_budget: int = DEFAULT_CHUNK_ERROR_BUDGET,
        report: DecodeReport | None = None,
    ) -> None:
        self.path = Path(path)
        self._name_override = name
        self.lenient = lenient
        self.error_budget = error_budget
        self.report = report if report is not None else DecodeReport()
        self._handle: Any = None
        self._mm: mmap.mmap | None = None
        self._view: memoryview | None = None
        self._fingerprint: str | None = None
        self._ensure_open()

    # ------------------------------------------------------------------
    # Opening and validation
    # ------------------------------------------------------------------

    def _fail(self, message: str) -> TraceFormatError:
        return TraceFormatError(message, path=str(self.path))

    def _ensure_open(self) -> None:
        if self._view is not None:
            return
        try:
            self._handle = open(self.path, "rb")
            size = self.path.stat().st_size
            if size == 0:
                raise self._fail("empty file is not a chunked trace store")
            self._mm = mmap.mmap(
                self._handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        except OSError as exc:
            self.close()
            raise self._fail(f"cannot open chunked trace store: {exc}") from exc
        try:
            self._view = memoryview(self._mm)
            self._parse(size)
        except Exception:
            self.close()
            raise

    def _parse(self, size: int) -> None:
        view = self._view
        assert view is not None
        if size < HEADER.size + FOOTER.size:
            raise self._fail(
                f"truncated store: {size} bytes is smaller than the "
                f"{HEADER.size}-byte header plus {FOOTER.size}-byte footer"
            )
        magic, version, _r16, _r32 = HEADER.unpack_from(view, 0)
        if magic != STORE_MAGIC:
            raise self._fail(
                f"bad magic {bytes(magic)!r}; not a chunked trace store"
            )
        if version != STORE_VERSION:
            raise self._fail(
                f"unsupported store version {version} "
                f"(this reader understands version {STORE_VERSION})"
            )
        index_offset, index_length, index_crc, _r, end_magic = FOOTER.unpack_from(
            view, size - FOOTER.size
        )
        if end_magic != STORE_END_MAGIC:
            raise self._fail(
                "missing end magic in footer — the file is truncated or "
                "was not finalized by the writer"
            )
        if (
            index_offset < HEADER.size
            or index_offset + index_length > size - FOOTER.size
        ):
            raise self._fail(
                f"index location (offset {index_offset}, length "
                f"{index_length}) falls outside the file body"
            )
        index_bytes = bytes(view[index_offset : index_offset + index_length])
        actual_crc = zlib.crc32(index_bytes) & 0xFFFFFFFF
        if actual_crc != index_crc:
            raise self._fail(
                f"index crc32 mismatch (stored {index_crc:#010x}, "
                f"computed {actual_crc:#010x}) — the index is corrupt"
            )
        try:
            meta = json.loads(index_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise self._fail(f"undecodable index JSON: {exc}") from exc
        self.meta = meta
        self.description = str(meta.get("description", ""))
        self.name = self._name_override or str(meta.get("name", self.path.stem))

        chunks: list[ChunkInfo] = []
        start = 0
        for i, entry in enumerate(meta.get("chunks", [])):
            try:
                info = ChunkInfo(
                    index=i,
                    offset=int(entry["offset"]),
                    length=int(entry["length"]),
                    records=int(entry["records"]),
                    crc32=int(entry["crc32"]),
                    codec=str(entry["codec"]),
                    start=start,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise self._fail(
                    f"malformed index entry for chunk {i}: {exc!r}"
                ) from exc
            if info.codec not in CHUNK_CODECS:
                raise chunk_error(
                    f"unknown chunk codec {info.codec!r}",
                    path=self.path,
                    chunk=info,
                )
            if (
                info.offset < HEADER.size
                or info.offset + info.length > index_offset
                or info.records < 0
            ):
                raise chunk_error(
                    f"chunk body (length {info.length}, {info.records} "
                    "records) falls outside the file's chunk region",
                    path=self.path,
                    chunk=info,
                )
            chunks.append(info)
            start += info.records
        self.chunks = chunks
        self._chunk_starts = [chunk.start for chunk in chunks]
        total = int(meta.get("records", start))
        if total != start:
            raise self._fail(
                f"index claims {total} records but chunk entries sum to {start}"
            )
        self._records = total

    # ------------------------------------------------------------------
    # Chunk access
    # ------------------------------------------------------------------

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    def chunk(self, index: int) -> ColumnarTrace:
        """Decode chunk *index* as a :class:`ColumnarTrace`.

        Verifies the stored bytes against the index crc32 first, so a
        flipped bit is reported (with chunk index and byte offset)
        rather than decoded.
        """
        self._ensure_open()
        info = self.chunks[index]
        assert self._view is not None
        stored = self._view[info.offset : info.offset + info.length]
        actual_crc = zlib.crc32(stored) & 0xFFFFFFFF
        if actual_crc != info.crc32:
            raise chunk_error(
                f"crc32 mismatch (stored {info.crc32:#010x}, computed "
                f"{actual_crc:#010x})",
                path=self.path,
                chunk=info,
            )
        cpu, pid, type_code, address, flags = decode_chunk_columns(
            stored, info, self.path
        )
        try:
            return ColumnarTrace(
                self.name, cpu, pid, type_code, address, flags, self.description
            )
        except ValueError as exc:
            raise chunk_error(str(exc), path=self.path, chunk=info) from exc

    def _release_chunk_pages(self, info: ChunkInfo) -> None:
        """Drop a consumed chunk's mapped pages from this process's RSS.

        ``MADV_DONTNEED`` on a read-only file mapping only unmaps the
        PTEs — the page cache keeps the data, so a later re-read (a
        second simulation pass, a kept raw view) soft-faults the pages
        back in.  Without this, a sequential sweep of a raw-codec store
        accumulates the whole file in resident memory and the
        bounded-memory guarantee silently becomes "bounded by the page
        cache's patience".
        """
        if self._mm is None or not hasattr(mmap, "MADV_DONTNEED"):
            return
        page = mmap.PAGESIZE
        start = (info.offset // page) * page
        length = info.offset + info.length - start
        try:
            self._mm.madvise(mmap.MADV_DONTNEED, start, length)
        except (OSError, ValueError):
            pass  # advisory only; RSS stays higher but reads still work

    def iter_chunks(self, start: int = 0) -> Iterator[ColumnarTrace]:
        """Yield each chunk in order as a :class:`ColumnarTrace`.

        The generator keeps no reference to a chunk it has yielded, so
        at most one decoded chunk is live if the consumer drops each
        chunk before asking for the next (``del chunk`` at the end of
        the loop body; a bare ``for`` loop keeps the previous chunk
        bound while the next one decodes, which doubles the heap).
        This is the bounded-memory simulation feed.  Once the consumer
        advances past a chunk its mapped pages are released from
        resident memory (see :meth:`_release_chunk_pages`).
        In lenient mode corrupt chunks are quarantined and skipped
        within the error budget; strict mode raises on the first.
        """
        for index in range(start, len(self.chunks)):
            try:
                yield self.chunk(index)
                # The consumer asked for the next chunk: this one's
                # pages are no longer needed resident.
                self._release_chunk_pages(self.chunks[index])
            except TraceFormatError as exc:
                if not self.lenient:
                    raise
                self._quarantine_chunk(self.chunks[index])
                self.report.note(exc)
                if self.report.skipped > self.error_budget:
                    raise TraceFormatError(
                        f"error budget exhausted: {self.report.skipped} corrupt "
                        f"chunks exceed the budget of {self.error_budget} "
                        f"(last: {exc})",
                        path=str(self.path),
                    ) from exc

    def _quarantine_chunk(self, info: ChunkInfo) -> None:
        """Preserve a corrupt chunk's stored bytes beside the file."""
        assert self._view is not None
        quarantine = Path(f"{self.path}.quarantine")
        try:
            quarantine.mkdir(exist_ok=True)
            (quarantine / f"chunk-{info.index:04d}.bin").write_bytes(
                self._view[info.offset : info.offset + info.length]
            )
        except OSError:
            # Quarantine is best-effort forensics; the skip itself is
            # already recorded in the report.
            pass

    def position_of(self, record_index: int) -> tuple[int, int]:
        """Map a global record index to ``(chunk index, offset in chunk)``.

        ``record_index == len(self)`` maps to ``(num_chunks, 0)`` — the
        exhausted position — so checkpoint manifests can record the
        end-of-trace state uniformly.
        """
        if not 0 <= record_index <= self._records:
            raise IndexError(
                f"record index {record_index} out of range for "
                f"{self._records}-record trace"
            )
        if record_index == self._records:
            return len(self.chunks), 0
        chunk_index = bisect_right(self._chunk_starts, record_index) - 1
        return chunk_index, record_index - self._chunk_starts[chunk_index]

    # ------------------------------------------------------------------
    # Trace duck-typing (records, iteration, indexing)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._records

    @property
    def records(self) -> "ChunkedTrace":
        """Sequence view of the records — the trace itself.

        Mirrors :attr:`ColumnarTrace.records` so code written against
        ``trace.records`` (length, iteration, indexing) works unchanged.
        """
        return self

    @property
    def cpus(self) -> list[int]:
        """Sorted CPU numbers, from the index (no chunk is decoded)."""
        return sorted(int(c) for c in self.meta.get("cpus", []))

    @property
    def pids(self) -> list[int]:
        """Sorted process identifiers, from the index."""
        return sorted(int(p) for p in self.meta.get("pids", []))

    def __iter__(self) -> Iterator[TraceRecord]:
        for chunk in self.iter_chunks():
            yield from chunk
            del chunk  # drop it before the next one decodes

    def __getitem__(self, index: int) -> TraceRecord:
        if index < 0:
            index += self._records
        if not 0 <= index < self._records:
            raise IndexError(index)
        chunk_index, offset = self.position_of(index)
        return self.chunk(chunk_index)[offset]

    def fingerprint(self) -> str:
        """The canonical content fingerprint (computed once, memoized)."""
        if self._fingerprint is None:
            from repro.trace.fingerprint import fingerprint_trace

            self._fingerprint = fingerprint_trace(self)
        return self._fingerprint

    # ------------------------------------------------------------------
    # Lifecycle and pickling
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the mapping and file handle (reopened on next use)."""
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                # Decoded raw chunks still hold zero-copy views into the
                # map; the map stays alive until they are collected.
                pass
            self._mm = None
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def __enter__(self) -> "ChunkedTrace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __getstate__(self) -> dict[str, Any]:
        # A chunked trace crosses process boundaries as a handle, not as
        # data: workers reopen the file and the OS page cache shares the
        # mapped pages between them.
        return {
            "path": str(self.path),
            "name": self._name_override,
            "lenient": self.lenient,
            "error_budget": self.error_budget,
            "fingerprint": self._fingerprint,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(
            state["path"],
            state["name"],
            lenient=state["lenient"],
            error_budget=state["error_budget"],
        )
        self._fingerprint = state.get("fingerprint")

    def __repr__(self) -> str:
        return (
            f"ChunkedTrace({str(self.path)!r}, name={self.name!r}, "
            f"records={self._records}, chunks={len(self.chunks)})"
        )


def open_chunked_trace(
    path: str | Path, name: str | None = None, **options: Any
) -> ChunkedTrace:
    """Open a ``.ctrc`` store file (validating header, footer, index)."""
    return ChunkedTrace(path, name, **options)
