"""Columnar trace storage: round-trips, views, and sequence behaviour."""

import pickle

import pytest

from repro.trace.columnar import (
    TYPE_INSTR,
    TYPE_READ,
    TYPE_WRITE,
    ColumnarTrace,
    columnar_trace,
)
from repro.trace.io import read_trace_chunks, write_trace_binary, write_trace_file
from repro.trace.record import RefType, TraceRecord
from repro.trace.stream import Trace
from repro.workloads.registry import make_trace


@pytest.fixture
def trace():
    return make_trace("pops", length=3000, seed=11)


def test_round_trip_preserves_every_record(trace):
    col = ColumnarTrace.from_trace(trace)
    assert col.to_records() == list(trace.records)
    assert len(col) == len(trace)
    assert col.name == trace.name


def test_round_trip_preserves_flags():
    records = [
        TraceRecord(cpu=1, pid=2, ref_type=RefType.READ, address=0x40,
                    system=True, lock=True, spin=True),
        TraceRecord(cpu=0, pid=0, ref_type=RefType.INSTR, address=0x44),
        TraceRecord(cpu=3, pid=5, ref_type=RefType.WRITE, address=0x48,
                    lock=True),
    ]
    col = ColumnarTrace.from_records(records)
    assert col.to_records() == records


def test_from_trace_is_identity_for_columnar(trace):
    col = ColumnarTrace.from_trace(trace)
    assert ColumnarTrace.from_trace(col) is col
    assert columnar_trace(col) is col


def test_columnar_trace_coerces_record_streams(trace):
    col = columnar_trace(iter(trace.records))
    assert col.to_records() == list(trace.records)


def test_iteration_and_indexing_match(trace):
    col = ColumnarTrace.from_trace(trace)
    assert list(col)[:10] == [col[i] for i in range(10)]
    assert col[-1] == trace.records[-1]


def test_slicing_stays_columnar(trace):
    col = ColumnarTrace.from_trace(trace)
    window = col.records[100:200]
    assert isinstance(window, ColumnarTrace)
    assert window.to_records() == list(trace.records[100:200])


def test_records_property_is_self(trace):
    col = ColumnarTrace.from_trace(trace)
    assert col.records is col


def test_cpus_and_pids_match_record_view(trace):
    col = ColumnarTrace.from_trace(trace)
    assert col.cpus == trace.cpus
    assert col.pids == trace.pids


def test_mismatched_column_lengths_rejected():
    with pytest.raises(ValueError, match="column lengths"):
        ColumnarTrace("bad", [1, 2], [1, 2], [TYPE_READ], [0x10, 0x20])


def test_invalid_type_code_rejected_with_position():
    with pytest.raises(ValueError, match="record 1"):
        ColumnarTrace("bad", [0, 0], [0, 0], [TYPE_READ, 7], [0x10, 0x20])


def test_data_view_drops_instructions(trace):
    col = ColumnarTrace.from_trace(trace)
    instr_count, types, sharers, addresses = col.data_view("pid")
    data = [r for r in trace.records if r.ref_type is not RefType.INSTR]
    assert instr_count == len(trace) - len(data)
    assert len(types) == len(sharers) == len(addresses) == len(data)
    assert TYPE_INSTR not in set(types)
    assert list(sharers) == [r.pid for r in data]
    assert list(addresses) == [r.address for r in data]


def test_data_view_respects_sharer_key(trace):
    col = ColumnarTrace.from_trace(trace)
    _, _, by_cpu, _ = col.data_view("cpu")
    data = [r for r in trace.records if r.ref_type is not RefType.INSTR]
    assert list(by_cpu) == [r.cpu for r in data]


def test_data_view_is_cached(trace):
    col = ColumnarTrace.from_trace(trace)
    assert col.data_view("pid") is col.data_view("pid")


def test_pickle_round_trip(trace):
    col = ColumnarTrace.from_trace(trace)
    col.data_view("pid")  # populate the memo; it must not ship
    clone = pickle.loads(pickle.dumps(col))
    assert clone == col
    assert clone.to_records() == col.to_records()


def test_from_binary_file_matches_record_load(tmp_path, trace):
    path = tmp_path / "trace.bin"
    write_trace_binary(trace.records, path)
    (col,) = read_trace_chunks(path, None)
    assert isinstance(col, ColumnarTrace)
    assert col.to_records() == list(trace.records)


def test_from_file_autodetects_text_and_binary(tmp_path, trace):
    text = tmp_path / "trace.txt"
    binary = tmp_path / "trace.bin"
    write_trace_file(trace.records, text)
    write_trace_binary(trace.records, binary)
    for path in (text, binary):
        (col,) = read_trace_chunks(path, None)
        assert isinstance(col, ColumnarTrace)
        assert col.to_records() == list(trace.records)


def test_to_trace_round_trip(trace):
    col = ColumnarTrace.from_trace(trace)
    back = col.to_trace()
    assert isinstance(back, Trace)
    assert list(back.records) == list(trace.records)
    assert back.name == trace.name


def test_write_codes_match_module_constants():
    assert (TYPE_INSTR, TYPE_READ, TYPE_WRITE) == (0, 1, 2)
