"""The ``.ctrc`` on-disk format: structs, layout math, chunk codecs.

File layout (all integers little-endian)::

    +--------------------+  offset 0
    | header (16 bytes)  |  magic "RPROCTRC", version u16, reserved
    +--------------------+
    | chunk 0 payload    |  8-byte aligned; zero padding between chunks
    | chunk 1 payload    |
    | ...                |
    +--------------------+
    | index (JSON)       |  utf-8, crc32-protected
    +--------------------+
    | footer (32 bytes)  |  index offset/length/crc32, end magic
    +--------------------+  end of file

The index is written *after* the chunks (zip-style) so a
:class:`~repro.store.writer.StreamingTraceWriter` never needs to know
the chunk count up front; readers find it through the fixed-size
footer at the end of the file.  Truncation therefore destroys the
footer magic and is detected before any chunk is trusted.

Each chunk payload stores ``records`` references in the exact
:class:`~repro.trace.columnar.ColumnarTrace` column layout::

    cpu  [records x 8 bytes, u64 LE]
    pid  [records x 8 bytes, u64 LE]
    addr [records x 8 bytes, u64 LE]
    type [records x 1 byte]
    flag [records x 1 byte]

— 26 bytes per record — either verbatim (codec ``raw``, decoded
zero-copy as ``mmap`` memoryviews) or zlib-compressed (codec
``zlib``).  The per-chunk crc32 covers the *stored* bytes, so
integrity is checked without decompressing.

Index JSON shape (``version`` 1)::

    {
      "version": 1,
      "name": "...", "description": "...",
      "records": <total>, "chunk_records": <nominal chunk size>,
      "cpus": [...], "pids": [...],          # sorted sharer-id sets
      "fingerprint": "<sha256 hex>",         # advisory content hash
      "chunks": [
        {"offset": o, "length": n, "records": r, "crc32": c, "codec": "raw"|"zlib"},
        ...
      ]
    }
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import TraceFormatError

STORE_MAGIC = b"RPROCTRC"
STORE_END_MAGIC = b"RPROCEND"
STORE_VERSION = 1

#: magic, version, reserved u16, reserved u32
HEADER = struct.Struct("<8sHHI")
#: index offset, index length, index crc32, reserved u32, end magic
FOOTER = struct.Struct("<QQII8s")

#: Supported chunk codecs.
CHUNK_CODECS = ("raw", "zlib")

#: Default references per chunk (~6.5 MiB raw): large enough that the
#: per-chunk kernel/session overhead is negligible, small enough that a
#: zlib chunk decodes into a modest heap allocation.
DEFAULT_CHUNK_RECORDS = 262_144

_WORD = 8
#: Stored bytes per record across the five columns (3*8 + 1 + 1).
RECORD_BYTES = 3 * _WORD + 2
#: The most a deflate stream can expand (zlib's documented 1032:1).
_MAX_DEFLATE_RATIO = 1032


def chunk_raw_size(records: int) -> int:
    """Uncompressed payload size of a chunk holding *records* references."""
    return records * RECORD_BYTES


def align8(offset: int) -> int:
    """Round *offset* up to the next 8-byte boundary."""
    return (offset + _WORD - 1) & ~(_WORD - 1)


@dataclass(frozen=True)
class ChunkInfo:
    """One chunk's index entry.

    Attributes:
        index: position of the chunk within the file (0-based).
        offset: byte offset of the stored payload within the file.
        length: stored payload length in bytes (compressed for zlib).
        records: references encoded in the chunk.
        crc32: checksum of the stored bytes.
        codec: ``"raw"`` or ``"zlib"``.
        start: global record index of the chunk's first reference.
    """

    index: int
    offset: int
    length: int
    records: int
    crc32: int
    codec: str
    start: int

    def to_json(self) -> dict[str, Any]:
        return {
            "offset": self.offset,
            "length": self.length,
            "records": self.records,
            "crc32": self.crc32,
            "codec": self.codec,
        }


def chunk_error(
    message: str, *, path: str | Path, chunk: ChunkInfo | None = None
) -> TraceFormatError:
    """A :class:`TraceFormatError` locating one chunk of a store file.

    The message names the chunk index and byte offset; the exception's
    ``record`` attribute carries the chunk's first global record index
    so callers can map the damage back to trace positions.
    """
    if chunk is None:
        return TraceFormatError(message, path=str(path))
    return TraceFormatError(
        f"chunk {chunk.index} at byte offset {chunk.offset}: {message}",
        path=str(path),
        record=chunk.start,
    )


def decode_chunk_columns(
    stored: Any, chunk: ChunkInfo, path: str | Path
) -> tuple[Any, Any, Any, Any, Any]:
    """Decode one chunk's stored bytes into the five trace columns.

    Returns ``(cpu, pid, type_code, address, flags)``, all five as
    views into one buffer.  A raw chunk backed by a ``memoryview``
    (the mmap path) is that buffer, so nothing is allocated.  A zlib
    chunk inflates straight from *stored* into a single heap buffer
    sized to the exact raw payload (``chunk_raw_size``), so the chunk's
    heap cost is its raw size plus zlib's small inflate state; the
    stored bytes are never copied.  Corruption — wrong length,
    undecodable zlib stream, out-of-range type codes — raises
    :class:`~repro.errors.TraceFormatError` via :func:`chunk_error`.
    """
    n = chunk.records
    raw_size = chunk_raw_size(n)
    if chunk.codec == "zlib":
        if raw_size > _MAX_DEFLATE_RATIO * len(stored):
            # Checked before the exact-size buffer is allocated, so an
            # index claiming absurdly many records fails as a format
            # error, not as a MemoryError.
            raise chunk_error(
                f"{len(stored)} stored bytes cannot inflate to the "
                f"{raw_size} bytes of {n} records",
                path=path,
                chunk=chunk,
            )
        try:
            data: Any = zlib.decompress(stored, bufsize=raw_size)
        except zlib.error as exc:
            raise chunk_error(
                f"undecodable zlib payload ({exc})", path=path, chunk=chunk
            ) from exc
    elif chunk.codec == "raw":
        data = stored
    else:
        raise chunk_error(
            f"unknown chunk codec {chunk.codec!r}", path=path, chunk=chunk
        )
    if len(data) != raw_size:
        raise chunk_error(
            f"payload decodes to {len(data)} bytes, expected "
            f"{raw_size} for {n} records",
            path=path,
            chunk=chunk,
        )

    view = data if isinstance(data, memoryview) else memoryview(data)
    word = n * _WORD

    def words(start: int) -> Any:
        segment = view[start : start + word]
        if sys.byteorder != "little":  # pragma: no cover - big-endian host
            swapped = array("Q", segment.tobytes())
            swapped.byteswap()
            return swapped
        return segment.cast("Q")

    cpu = words(0)
    pid = words(word)
    address = words(2 * word)
    type_code = view[3 * word : 3 * word + n]
    flags = view[3 * word + n : 3 * word + 2 * n]
    return cpu, pid, type_code, address, flags


def is_chunked_trace(path: str | Path) -> bool:
    """True when *path* starts with the ``.ctrc`` store magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(STORE_MAGIC)) == STORE_MAGIC
    except OSError:
        return False
