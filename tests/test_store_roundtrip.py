"""Property tests: ``.ctrc`` round trips and fingerprint identity.

Two invariants carry the whole store design:

* **round trip** — any trace packed through any codec at any chunk
  size reads back record-for-record identical;
* **fingerprint identity** — the streaming content fingerprint equals
  the in-memory one for every representation of the same records
  (record list, columnar, chunked store, and the advisory copy in the
  store index), so cache/dedup keys never depend on how a trace is
  stored.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.store import ChunkedTrace, pack_trace, write_stream
from repro.store.writer import StreamingTraceWriter
from repro.trace.columnar import ColumnarTrace, columnar_chunks
from repro.trace.fingerprint import _BATCH, TraceHasher, fingerprint_trace
from repro.trace.record import RefType, TraceRecord
from repro.trace.stream import Trace


@st.composite
def record_strategy(draw):
    """One arbitrary valid record (spin implies lock — a record invariant)."""
    lock = draw(st.booleans())
    return TraceRecord(
        cpu=draw(st.integers(0, 15)),
        pid=draw(st.integers(0, 15)),
        ref_type=draw(st.sampled_from(list(RefType))),
        address=draw(st.integers(0, (1 << 48) - 1)),
        system=draw(st.booleans()),
        lock=lock,
        spin=lock and draw(st.booleans()),
    )


def records_strategy(max_size=400):
    return st.lists(record_strategy(), max_size=max_size)


@settings(max_examples=30, deadline=None)
@given(
    records=records_strategy(),
    codec=st.sampled_from(["raw", "zlib"]),
    chunk_records=st.integers(1, 64),
)
def test_roundtrip_any_codec_any_chunking(tmp_path_factory, records, codec,
                                          chunk_records):
    path = tmp_path_factory.mktemp("rt") / "t.ctrc"
    trace = Trace(name="prop", records=records)
    meta = pack_trace(trace, path, codec=codec, chunk_records=chunk_records)
    assert meta["records"] == len(records)
    with ChunkedTrace(path) as readback:
        assert list(readback) == records
        assert len(readback) == len(records)
        # Chunk sizes: all full except possibly the last.
        sizes = [len(chunk) for chunk in readback.iter_chunks()]
        assert sum(sizes) == len(records)
        assert all(size == chunk_records for size in sizes[:-1])
        # Fingerprint identity across all four representations.
        expected = fingerprint_trace(trace)
        assert meta["fingerprint"] == expected
        assert readback.fingerprint() == expected
        if records:
            assert fingerprint_trace(ColumnarTrace.from_trace(trace)) == expected


@settings(max_examples=15, deadline=None)
@given(records=records_strategy(max_size=200), cut=st.integers(0, 200))
def test_chunks_from_a_position_match_columnar(tmp_path_factory, records, cut):
    path = tmp_path_factory.mktemp("sl") / "t.ctrc"
    trace = Trace(name="slice", records=records)
    pack_trace(trace, path, codec="raw", chunk_records=17)
    columnar = ColumnarTrace.from_trace(trace)
    with ChunkedTrace(path) as readback:
        start = min(cut, len(records))
        chunks = list(columnar_chunks(readback, start))
        assert [record for chunk in chunks for record in chunk] == list(
            columnar[start:]
        )
        assert all(0 < len(chunk) <= 17 for chunk in chunks)
        del chunks
        if records:
            index = start % len(records)
            assert readback[index] == columnar[index]
            assert readback[-1] == records[-1]


def test_incremental_hasher_differential():
    """update_records and update_columns agree batch by batch."""
    records = [
        TraceRecord(cpu=i % 3, pid=i % 5, ref_type=list(RefType)[i % 3],
                    address=i * 977, system=bool(i % 2), lock=bool(i % 7 == 0),
                    spin=False)
        for i in range(1000)
    ]
    by_records = TraceHasher()
    by_records.update_records(records)
    columnar = ColumnarTrace.from_trace(Trace(name="h", records=records))
    by_columns = TraceHasher()
    by_columns.update_columns(
        columnar.cpu, columnar.pid, columnar.type_code,
        columnar.address, columnar.flags,
    )
    # Same content split across several update calls.
    split = TraceHasher()
    split.update_records(records[:311])
    split.update_records(records[311:])
    assert by_records.hexdigest() == by_columns.hexdigest() == split.hexdigest()


@pytest.mark.parametrize(
    "length", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 3]
)
def test_column_hash_matches_records_at_batch_boundaries(length):
    """update_columns == update_records on either side of a batch edge,
    for array/bytes columns and for read-only memoryview columns."""
    records = [
        TraceRecord(cpu=i % 4, pid=i % 6, ref_type=list(RefType)[i % 3],
                    address=(i * 7919) << 20, system=bool(i % 2),
                    lock=bool(i % 5 == 0), spin=bool(i % 10 == 0))
        for i in range(length)
    ]
    expected = TraceHasher()
    expected.update_records(records)
    columnar = ColumnarTrace.from_records(records)
    columns = (
        columnar.cpu, columnar.pid, columnar.type_code,
        columnar.address, columnar.flags,
    )
    assert isinstance(columnar.type_code, bytes)
    for feed in (columns, [memoryview(column).toreadonly() for column in columns]):
        hasher = TraceHasher()
        hasher.update_columns(*feed)
        assert hasher.hexdigest() == expected.hexdigest()


def test_empty_trace_roundtrip(tmp_path):
    path = tmp_path / "empty.ctrc"
    meta = write_stream(iter(()), path, "empty")
    assert meta["records"] == 0
    assert meta["chunks"] == []
    with ChunkedTrace(path) as trace:
        assert len(trace) == 0
        assert list(trace) == []
        assert trace.fingerprint() == meta["fingerprint"]


def test_writer_abort_leaves_no_file(tmp_path):
    path = tmp_path / "aborted.ctrc"
    with pytest.raises(RuntimeError, match="boom"):
        with StreamingTraceWriter(path, "x") as writer:
            writer.append(TraceRecord(cpu=0, pid=0, ref_type=RefType.READ,
                                      address=4))
            raise RuntimeError("boom")
    assert not path.exists()
    assert not path.with_name(path.name + ".tmp").exists()


def test_pickle_handle_reopens(tmp_path):
    from repro.workloads.registry import make_trace

    path = tmp_path / "h.ctrc"
    pack_trace(make_trace("pops", length=3000), path, chunk_records=700)
    with ChunkedTrace(path) as original:
        fingerprint = original.fingerprint()
        blob = pickle.dumps(original)
        # The handle is tiny: no chunk data crosses the boundary.
        assert len(blob) < 1000
    clone = pickle.loads(blob)
    assert clone.fingerprint() == fingerprint
    assert len(clone) == 3000
    assert clone.name == "pops"
    clone.close()


def test_append_columns_equals_append(tmp_path):
    from repro.workloads.registry import make_trace

    trace = make_trace("thor", length=2500, seed=5)
    by_record = tmp_path / "by_record.ctrc"
    by_column = tmp_path / "by_column.ctrc"
    meta_r = write_stream(iter(trace.records), by_record, "thor",
                          chunk_records=600)
    meta_c = pack_trace(ColumnarTrace.from_trace(trace), by_column,
                        name="thor", chunk_records=600)
    assert meta_r["fingerprint"] == meta_c["fingerprint"]
    assert meta_r["records"] == meta_c["records"]
    assert [c["crc32"] for c in meta_r["chunks"]] == [
        c["crc32"] for c in meta_c["chunks"]
    ]
