"""Chunked store corruption semantics: every fault is a TraceFormatError.

The contract under test (docs/TRACESTORE.md): any damage to a ``.ctrc``
file — truncation, bad magic, version skew, index damage, chunk
payload damage — surfaces as :class:`~repro.errors.TraceFormatError`
naming the file (and for chunk faults, the chunk index and byte
offset).  A bare ``struct.error`` / ``zlib.error`` / ``JSONDecodeError``
escaping the reader is a bug.  Lenient mode skips corrupt chunks
within an error budget and quarantines their stored bytes beside the
file, mirroring the text decoder's lenient mode.
"""

import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.errors import TraceFormatError
from repro.store import ChunkedTrace, is_chunked_trace, pack_trace, write_stream
from repro.store.format import (
    FOOTER,
    HEADER,
    STORE_END_MAGIC,
    STORE_MAGIC,
    STORE_VERSION,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import DecodeReport
from repro.workloads.registry import make_trace

CHUNK_RECORDS = 500


@pytest.fixture(scope="module")
def trace():
    return make_trace("pops", length=4000, seed=11)


@pytest.fixture
def store(trace, tmp_path) -> Path:
    path = tmp_path / "trace.ctrc"
    pack_trace(trace, path, codec="zlib", chunk_records=CHUNK_RECORDS)
    return path


def rewrite_index(path: Path, mutate) -> None:
    """Apply *mutate* to the parsed index JSON and re-seal the footer.

    Keeps the crc32 consistent, so the reader's *semantic* validation
    (not the checksum) is what trips.
    """
    blob = path.read_bytes()
    offset, length, _crc, reserved, magic = FOOTER.unpack(blob[-FOOTER.size:])
    meta = json.loads(blob[offset:offset + length].decode("utf-8"))
    mutate(meta)
    index = json.dumps(meta, sort_keys=True).encode("utf-8")
    path.write_bytes(
        blob[:offset]
        + index
        + FOOTER.pack(offset, len(index), zlib.crc32(index) & 0xFFFFFFFF,
                      reserved, magic)
    )


# ----------------------------------------------------------------------
# The stored bytes: the format's reference
# ----------------------------------------------------------------------

@pytest.mark.parametrize("codec", ["zlib", "raw"])
def test_stored_chunk_bytes_are_the_format_reference(tmp_path, codec):
    """Each chunk stores cpu‖pid‖addr‖type‖flags, the word columns as
    little-endian u64, verbatim (raw) or as one ``zlib.compress`` of
    that concatenation at the writer's level (zlib); chunks start
    8-byte aligned after zero padding, and the index crc32 covers the
    stored bytes.  One full chunk and a short last chunk."""
    columns = ColumnarTrace.from_trace(make_trace("thor", length=1000, seed=3))
    path = tmp_path / "reference.ctrc"
    meta = pack_trace(columns, path, codec=codec, chunk_records=600, level=4)
    blob = path.read_bytes()
    assert [entry["records"] for entry in meta["chunks"]] == [600, 400]
    offset = HEADER.size
    start = 0
    for entry in meta["chunks"]:
        stop = start + entry["records"]
        words = f"<{stop - start}Q"
        payload = b"".join([
            struct.pack(words, *columns.cpu[start:stop]),
            struct.pack(words, *columns.pid[start:stop]),
            struct.pack(words, *columns.address[start:stop]),
            bytes(columns.type_code[start:stop]),
            bytes(columns.flags[start:stop]),
        ])
        stored = payload if codec == "raw" else zlib.compress(payload, 4)
        assert entry["codec"] == codec
        assert entry["offset"] == offset
        assert entry["length"] == len(stored)
        assert entry["crc32"] == zlib.crc32(stored)
        assert blob[offset:offset + len(stored)] == stored
        end = offset + len(stored)
        offset = (end + 7) // 8 * 8
        assert blob[end:offset] == bytes(offset - end)
        start = stop


@pytest.mark.parametrize("codec", ["zlib", "raw"])
def test_empty_trace_is_header_index_footer(tmp_path, codec):
    path = tmp_path / "empty.ctrc"
    meta = write_stream(iter(()), path, name="empty", codec=codec)
    assert meta["records"] == 0
    assert meta["chunks"] == []
    index = json.dumps(meta, sort_keys=True).encode("utf-8")
    assert path.read_bytes() == (
        HEADER.pack(STORE_MAGIC, STORE_VERSION, 0, 0)
        + index
        + FOOTER.pack(HEADER.size, len(index), zlib.crc32(index), 0, STORE_END_MAGIC)
    )
    with ChunkedTrace(path) as trace:
        assert len(trace) == 0
        assert list(trace.iter_chunks()) == []


# ----------------------------------------------------------------------
# Structural damage
# ----------------------------------------------------------------------

def test_magic_sniff(store, tmp_path):
    assert is_chunked_trace(store)
    text = tmp_path / "trace.txt"
    text.write_text("not a store\n")
    assert not is_chunked_trace(text)
    assert not is_chunked_trace(tmp_path / "absent.ctrc")


def test_empty_file(tmp_path):
    path = tmp_path / "empty.ctrc"
    path.write_bytes(b"")
    with pytest.raises(TraceFormatError, match="empty"):
        ChunkedTrace(path)


def test_bad_magic(store):
    blob = store.read_bytes()
    store.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(TraceFormatError, match="magic"):
        ChunkedTrace(store)


def test_version_skew(store):
    blob = bytearray(store.read_bytes())
    blob[8:10] = struct.pack("<H", 99)
    store.write_bytes(bytes(blob))
    with pytest.raises(TraceFormatError, match="version"):
        ChunkedTrace(store)


def test_truncation_every_prefix_is_diagnosed(store):
    """No truncation point may leak a bare struct/zlib/JSON error."""
    blob = store.read_bytes()
    # A spread of cut points: inside the header, chunks, index, footer.
    cuts = {1, 8, HEADER.size, HEADER.size + 3, len(blob) // 2,
            len(blob) - FOOTER.size - 1, len(blob) - FOOTER.size // 2,
            len(blob) - 1}
    for cut in sorted(cuts):
        store.write_bytes(blob[:cut])
        with pytest.raises(TraceFormatError):
            ChunkedTrace(store)


def test_truncation_names_the_missing_end_magic(store):
    blob = store.read_bytes()
    store.write_bytes(blob[: len(blob) - FOOTER.size])
    with pytest.raises(TraceFormatError, match="end magic"):
        ChunkedTrace(store)


def test_index_crc_corruption(store):
    blob = bytearray(store.read_bytes())
    offset, _, _, _, magic = FOOTER.unpack(bytes(blob[-FOOTER.size:]))
    assert magic == STORE_END_MAGIC
    blob[offset] ^= 0xFF  # first byte of the JSON index
    store.write_bytes(bytes(blob))
    with pytest.raises(TraceFormatError, match="crc32"):
        ChunkedTrace(store)


def test_unknown_codec_in_index(store):
    rewrite_index(
        store,
        lambda meta: meta["chunks"][0].__setitem__("codec", "lzma"),
    )
    with pytest.raises(TraceFormatError, match="codec"):
        ChunkedTrace(store)


def test_record_count_mismatch_in_index(store):
    def bump(meta):
        meta["records"] += 7

    rewrite_index(store, bump)
    with pytest.raises(TraceFormatError, match="record"):
        ChunkedTrace(store)


def test_chunk_out_of_bounds_offset(store):
    rewrite_index(
        store,
        lambda meta: meta["chunks"][-1].__setitem__("offset", 1 << 40),
    )
    with pytest.raises(TraceFormatError):
        ChunkedTrace(store)


# ----------------------------------------------------------------------
# Chunk payload damage
# ----------------------------------------------------------------------

def corrupt_chunk(path: Path, index: int) -> None:
    """Flip one byte inside chunk *index*'s stored bytes."""
    with ChunkedTrace(path) as trace:
        info = trace.chunks[index]
    blob = bytearray(path.read_bytes())
    blob[info.offset + info.length // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def test_chunk_crc_names_index_and_byte_offset(store):
    corrupt_chunk(store, 2)
    trace = ChunkedTrace(store)  # open is index-only: no error yet
    offset = trace.chunks[2].offset
    with pytest.raises(
        TraceFormatError, match=rf"chunk 2 at byte offset {offset}"
    ) as excinfo:
        list(trace.iter_chunks())
    assert excinfo.value.path == str(store)
    # The undamaged prefix still decodes.
    assert len(trace.chunk(0)) == CHUNK_RECORDS
    assert len(trace.chunk(1)) == CHUNK_RECORDS


def test_zlib_garbage_is_wrapped_not_raised_bare(store):
    """A chunk whose bytes pass crc but are not valid zlib."""
    with ChunkedTrace(store) as trace:
        info = trace.chunks[1]
    blob = bytearray(store.read_bytes())
    garbage = bytes((b ^ 0x5A) for b in blob[info.offset:info.offset + info.length])
    blob[info.offset:info.offset + info.length] = garbage
    store.write_bytes(bytes(blob))
    # Re-seal this chunk's crc in the index so only decompression fails.
    rewrite_index(
        store,
        lambda meta: meta["chunks"][1].__setitem__(
            "crc32", zlib.crc32(garbage) & 0xFFFFFFFF
        ),
    )
    trace = ChunkedTrace(store)
    with pytest.raises(TraceFormatError, match="chunk 1"):
        trace.chunk(1)


def test_record_count_beyond_what_zlib_can_inflate(store):
    """The exact-size inflate buffer is never sized from an absurd index."""
    claimed = 10**12

    def inflate(meta):
        meta["chunks"][0]["records"] = claimed
        meta["records"] += claimed - CHUNK_RECORDS

    rewrite_index(store, inflate)
    trace = ChunkedTrace(store)
    with pytest.raises(TraceFormatError, match="chunk 0 .*cannot inflate"):
        trace.chunk(0)


# ----------------------------------------------------------------------
# Lenient mode: skip, quarantine, budget
# ----------------------------------------------------------------------

def test_lenient_skips_and_quarantines(store, trace):
    corrupt_chunk(store, 1)
    report = DecodeReport()
    lenient = ChunkedTrace(store, lenient=True, report=report)
    records = sum(len(chunk) for chunk in lenient.iter_chunks())
    assert records == len(trace) - CHUNK_RECORDS  # exactly one chunk lost
    assert report.skipped == 1
    sidecar = Path(f"{store}.quarantine") / "chunk-0001.bin"
    assert sidecar.exists()
    # The quarantined bytes are the damaged stored bytes, verbatim.
    assert len(sidecar.read_bytes()) == lenient.chunks[1].length


def test_lenient_error_budget_exhaustion(store):
    for index in range(4):
        corrupt_chunk(store, index)
    lenient = ChunkedTrace(store, lenient=True, error_budget=2)
    with pytest.raises(TraceFormatError, match="error budget exhausted"):
        list(lenient.iter_chunks())


def test_strict_mode_raises_on_first_corrupt_chunk(store):
    corrupt_chunk(store, 0)
    with pytest.raises(TraceFormatError, match="chunk 0"):
        list(ChunkedTrace(store).iter_chunks())
