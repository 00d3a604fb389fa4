"""Text and binary trace serialization."""

import pytest

from repro.errors import TraceFormatError
from repro.trace.columnar import columnar_chunks
from repro.trace.io import (
    DecodeReport,
    LazyTraceFile,
    format_record,
    is_binary_trace,
    load_trace,
    parse_record,
    read_trace_binary,
    read_trace_file,
    write_trace_binary,
    write_trace_file,
)
from repro.trace.record import RefType, TraceRecord

from conftest import write_flagged_binary


def _sample_records():
    return [
        TraceRecord(cpu=0, pid=12, ref_type=RefType.READ, address=0x00400A10),
        TraceRecord(cpu=1, pid=13, ref_type=RefType.WRITE, address=0x7FFE0040, system=True),
        TraceRecord(
            cpu=2, pid=12, ref_type=RefType.READ, address=0x00500000, lock=True, spin=True
        ),
        TraceRecord(cpu=3, pid=14, ref_type=RefType.INSTR, address=0x00010000),
    ]


def test_format_and_parse_round_trip():
    for record in _sample_records():
        assert parse_record(format_record(record)) == record


def test_text_file_round_trip(tmp_path):
    path = tmp_path / "trace.txt"
    records = _sample_records()
    assert write_trace_file(records, path) == len(records)
    assert list(read_trace_file(path)) == records


def test_text_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("# header\n\n0 1 r 0x10\n")
    records = list(read_trace_file(path))
    assert len(records) == 1
    assert records[0].address == 0x10


def test_text_parse_errors_carry_location(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0 1 r 0x10\nbogus line here is bad\n")
    with pytest.raises(TraceFormatError, match="trace.txt:2"):
        list(read_trace_file(path))


def test_parse_rejects_wrong_field_count():
    with pytest.raises(TraceFormatError):
        parse_record("0 1 r")


def test_parse_rejects_bad_type_code():
    with pytest.raises(TraceFormatError):
        parse_record("0 1 z 0x10")


def test_parse_rejects_unknown_flag():
    with pytest.raises(TraceFormatError):
        parse_record("0 1 r 0x10 q")


def test_parse_rejects_spin_without_lock():
    with pytest.raises(TraceFormatError):
        parse_record("0 1 r 0x10 p")


def test_binary_round_trip(tmp_path):
    path = tmp_path / "trace.bin"
    records = _sample_records()
    assert write_trace_binary(records, path) == len(records)
    assert list(read_trace_binary(path)) == records


def test_binary_detects_bad_magic(tmp_path):
    path = tmp_path / "trace.bin"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(TraceFormatError, match="magic"):
        list(read_trace_binary(path))


def test_binary_detects_truncation(tmp_path):
    path = tmp_path / "trace.bin"
    write_trace_binary(_sample_records(), path)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(TraceFormatError, match="truncated"):
        list(read_trace_binary(path))


def test_binary_empty_trace(tmp_path):
    path = tmp_path / "empty.bin"
    assert write_trace_binary([], path) == 0
    assert list(read_trace_binary(path)) == []
    assert len(load_trace(path)) == 0
    assert list(load_trace(path, lazy=True)) == []


def test_gzip_text_round_trip(tmp_path):
    path = tmp_path / "trace.txt.gz"
    records = _sample_records()
    assert write_trace_file(records, path) == len(records)
    assert path.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic
    assert list(read_trace_file(path)) == records


def test_gzip_binary_round_trip(tmp_path):
    path = tmp_path / "trace.bin.gz"
    records = _sample_records()
    assert write_trace_binary(records, path) == len(records)
    assert list(read_trace_binary(path)) == records


def test_gzip_is_smaller_for_large_traces(tmp_path):
    records = _sample_records() * 500
    plain = tmp_path / "big.trace"
    packed = tmp_path / "big.trace.gz"
    write_trace_file(records, plain)
    write_trace_file(records, packed)
    assert packed.stat().st_size < plain.stat().st_size / 3


# ----------------------------------------------------------------------
# Located errors and lenient decoding
# ----------------------------------------------------------------------

def test_located_error_exposes_path_and_line(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("# header\n0 1 r 0x10\n0 1 z 0x20\n")
    with pytest.raises(TraceFormatError) as excinfo:
        list(read_trace_file(path))
    assert excinfo.value.path == str(path)
    assert excinfo.value.line == 3  # 1-based, comments counted


def test_lenient_decode_skips_within_budget(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0 1 r 0x10\nbogus\n0 1 w 0x20\nalso bogus\n0 1 r 0x30\n")
    report = DecodeReport()
    records = list(read_trace_file(path, lenient=True, report=report))
    assert [record.address for record in records] == [0x10, 0x20, 0x30]
    assert report.records == 3
    assert report.skipped == 2
    assert f"{path}:2" in report.errors[0]
    assert "skipped 2 malformed lines" in report.summary()


def test_lenient_decode_budget_exhaustion_raises(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("junk\n" * 5 + "0 1 r 0x10\n")
    with pytest.raises(TraceFormatError, match="error budget exhausted"):
        list(read_trace_file(path, lenient=True, error_budget=3))
    # A budget of >= 5 tolerates the same file.
    assert len(list(read_trace_file(path, lenient=True, error_budget=5))) == 1


def test_strict_decode_ignores_budget(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("junk\n")
    with pytest.raises(TraceFormatError):
        list(read_trace_file(path, error_budget=1000))


# ----------------------------------------------------------------------
# Auto-detection and lazy file-backed traces
# ----------------------------------------------------------------------

def test_is_binary_trace_sniffs_magic(tmp_path):
    text, binary = tmp_path / "a.trace", tmp_path / "b.bin"
    write_trace_file(_sample_records(), text)
    write_trace_binary(_sample_records(), binary)
    assert not is_binary_trace(text)
    assert is_binary_trace(binary)
    assert not is_binary_trace(tmp_path / "missing.trace")


def test_load_trace_autodetects_format(tmp_path):
    records = _sample_records()
    text, binary = tmp_path / "a.trace", tmp_path / "b.bin"
    write_trace_file(records, text)
    write_trace_binary(records, binary)
    assert list(load_trace(text).records) == records
    assert list(load_trace(binary).records) == records
    assert load_trace(text).name == "a"
    assert load_trace(text, name="custom").name == "custom"


def test_lazy_trace_defers_parse_errors_to_iteration(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("0 1 r 0x10\ngarbage\n")
    trace = load_trace(path, lazy=True)  # must not raise here
    assert isinstance(trace, LazyTraceFile)
    with pytest.raises(TraceFormatError, match="bad.trace:2"):
        list(trace.records)


def test_lazy_trace_is_reiterable_and_streams_from_a_position(tmp_path):
    records = _sample_records()
    path = tmp_path / "t.trace"
    write_trace_file(records, path)
    trace = LazyTraceFile(path)
    assert len(trace) == len(records)
    assert list(trace.records) == records
    assert list(trace.records) == records  # second pass re-reads the file
    assert trace.records[1] == records[1]
    (tail,) = columnar_chunks(trace, 1)
    assert list(tail) == records[1:]
    with pytest.raises(IndexError):
        trace.records[len(records)]


def test_lazy_trace_rejects_backward_access(tmp_path):
    path = tmp_path / "t.trace"
    write_trace_file(_sample_records(), path)
    trace = LazyTraceFile(path)
    with pytest.raises(IndexError):
        trace.records[-1]
    with pytest.raises(TypeError):
        trace.records[::2]


@pytest.mark.parametrize("flags", [0x08, 0x80 | 0x03, 0x04, 0x05])
def test_bad_binary_flags_fail_on_every_load_path(tmp_path, flags):
    """Flag bits beyond system/lock/spin, or spin without lock, are a
    located format error however the file is read."""
    path = tmp_path / "flags.bin"
    write_flagged_binary(path, flags)
    loads = [
        lambda: list(read_trace_binary(path)),
        lambda: load_trace(path),
        lambda: list(load_trace(path, lazy=True).records),
        lambda: list(columnar_chunks(load_trace(path, lazy=True))),
    ]
    for load in loads:
        with pytest.raises(TraceFormatError, match="flags byte") as excinfo:
            load()
        assert (excinfo.value.path, excinfo.value.record) == (str(path), 1)


def test_every_format_loads_to_the_same_trace(tmp_path):
    """Text, text .gz, binary, binary .gz and a .ctrc packed from the
    binary load, eager and lazy, to equal records, fingerprints and
    results for the paper's four schemes."""
    from repro.core.simulator import Simulator
    from repro.runner.cache import trace_fingerprint
    from repro.store import pack_trace
    from repro.workloads.registry import make_trace

    trace = make_trace("pops", length=3000)
    schemes = ["dir1nb", "wti", "dir0b", "dragon"]
    paths = []
    for suffix, write in ((".trace", write_trace_file), (".bin", write_trace_binary)):
        for gz in ("", ".gz"):
            paths.append(tmp_path / f"pops{suffix}{gz}")
            write(trace.records, paths[-1])
    paths.append(tmp_path / "pops.ctrc")
    pack_trace(load_trace(tmp_path / "pops.bin", lazy=True), paths[-1])

    fingerprint = trace_fingerprint(trace)
    results = [Simulator().run(trace, scheme) for scheme in schemes]
    for path in paths:
        for lazy in (False, True):
            loaded = load_trace(path, "pops", lazy=lazy)
            assert trace_fingerprint(loaded) == fingerprint, (path, lazy)
            assert [Simulator().run(loaded, s) for s in schemes] == results, (path, lazy)
            assert list(loaded.records) == list(trace.records), (path, lazy)
