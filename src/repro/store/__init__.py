"""repro.store — the chunked, compressed, on-disk columnar trace store.

A ``.ctrc`` file holds one multiprocessor address trace as a sequence
of independently decodable chunks, each storing the exact
:class:`~repro.trace.columnar.ColumnarTrace` column layout (cpu, pid,
address as little-endian 64-bit words; type codes and flag bitmasks as
bytes), either raw — memory-mappable, decoded zero-copy — or
zlib-compressed.  A footer-addressed index carries per-chunk
``(offset, length, record count, crc32, codec)`` entries plus trace
metadata (name, sharer-id sets, an advisory content fingerprint), so
opening a file is O(index), not O(records).

The pieces:

* :class:`~repro.store.writer.StreamingTraceWriter` — append records
  (or column batches) and chunks are flushed incrementally; the full
  trace never exists in memory.
* :class:`~repro.store.chunked.ChunkedTrace` — the reader: sequential
  chunk iteration for bounded-memory simulation, record iteration and
  indexing for everything written against ``trace.records``, and a
  streaming content fingerprint identical to the in-memory one.
* :func:`~repro.store.writer.pack_trace` / CLI ``repro trace
  pack|info|gen`` — conversion and inspection tooling.

See ``docs/TRACESTORE.md`` for the format specification and
chunk-size guidance.
"""

from repro import lazy_exports

_EXPORTS = {
    "CHUNK_CODECS": "repro.store.format",
    "DEFAULT_CHUNK_RECORDS": "repro.store.format",
    "STORE_VERSION": "repro.store.format",
    "ChunkInfo": "repro.store.format",
    "ChunkedTrace": "repro.store.chunked",
    "StreamingTraceWriter": "repro.store.writer",
    "is_chunked_trace": "repro.store.format",
    "open_chunked_trace": "repro.store.chunked",
    "pack_trace": "repro.store.writer",
    "write_stream": "repro.store.writer",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
