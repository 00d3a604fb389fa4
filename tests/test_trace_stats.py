"""Trace statistics (paper Table 3 summaries)."""

import pytest

from repro.trace.record import RefType, TraceRecord
from repro.trace.stats import compute_statistics

from conftest import make_records


def test_counts_by_type():
    records = make_records(
        [(0, 0, "i", 0), (0, 0, "i", 4), (0, 0, "r", 8), (1, 1, "w", 12)]
    )
    stats = compute_statistics(records, "t")
    assert stats.total_refs == 4
    assert stats.instr_refs == 2
    assert stats.data_reads == 1
    assert stats.data_writes == 1
    assert stats.data_refs == 2


def test_fractions_sum_to_one():
    records = make_records([(0, 0, "i", 0), (0, 0, "r", 4), (0, 0, "w", 8)])
    stats = compute_statistics(records, "t")
    total = stats.instr_fraction + stats.read_fraction + stats.write_fraction
    assert total == pytest.approx(1.0)


def test_user_system_split():
    records = [
        TraceRecord(cpu=0, pid=0, ref_type=RefType.READ, address=0, system=True),
        TraceRecord(cpu=0, pid=0, ref_type=RefType.READ, address=4),
    ]
    stats = compute_statistics(records, "t")
    assert stats.system_refs == 1
    assert stats.user_refs == 1
    assert stats.system_fraction == pytest.approx(0.5)


def test_lock_and_spin_counting():
    records = [
        TraceRecord(cpu=0, pid=0, ref_type=RefType.READ, address=0, lock=True),
        TraceRecord(cpu=0, pid=0, ref_type=RefType.READ, address=0, lock=True, spin=True),
        TraceRecord(cpu=0, pid=0, ref_type=RefType.READ, address=4),
    ]
    stats = compute_statistics(records, "t")
    assert stats.lock_refs == 2
    assert stats.spin_reads == 1
    assert stats.spin_read_fraction_of_reads == pytest.approx(1 / 3)


def test_read_write_ratio_infinite_when_no_writes():
    records = make_records([(0, 0, "r", 0)])
    stats = compute_statistics(records, "t")
    assert stats.read_write_ratio == float("inf")


def test_per_cpu_and_per_pid_counts():
    records = make_records([(0, 5, "r", 0), (0, 6, "r", 4), (1, 5, "w", 8)])
    stats = compute_statistics(records, "t")
    assert stats.refs_per_cpu == {0: 2, 1: 1}
    assert stats.refs_per_pid == {5: 2, 6: 1}


def test_empty_trace_statistics():
    stats = compute_statistics([], "empty")
    assert stats.total_refs == 0
    assert stats.instr_fraction == 0.0
    assert stats.spin_read_fraction_of_reads == 0.0


def test_table_row_units_are_thousands():
    records = make_records([(0, 0, "r", i * 4) for i in range(2000)])
    stats = compute_statistics(records, "big")
    row = stats.as_table_row()
    assert row["refs_k"] == pytest.approx(2.0)
    assert row["drd_k"] == pytest.approx(2.0)


def test_workload_statistics_match_config(pops_small):
    stats = compute_statistics(pops_small.records, pops_small.name)
    # The POPS analogue targets ~52% instructions and a spin-heavy
    # read stream (roughly one-third of reads).
    assert 0.48 < stats.instr_fraction < 0.56
    assert 0.25 < stats.spin_read_fraction_of_reads < 0.45
    assert stats.system_fraction > 0.05


def test_columns_record_streams_and_chunked_stores_agree(tmp_path, monkeypatch):
    """Every input form is counted over columns to the same statistics."""
    import repro.trace.columnar as columnar_module
    from repro.store import ChunkedTrace, pack_trace
    from repro.trace.columnar import ColumnarTrace
    from repro.workloads.registry import make_trace

    trace = make_trace("pops", length=6000)
    expected = compute_statistics(trace, "pops")
    assert trace.columns is not None
    records = ColumnarTrace.from_trace(trace).to_records()
    assert expected.total_refs == len(records)
    assert expected.system_refs == sum(record.system for record in records)
    assert expected.lock_refs == sum(record.lock for record in records)
    assert expected.spin_reads == sum(record.spin for record in records)
    assert expected.data_writes == sum(record.is_write for record in records)

    monkeypatch.setattr(columnar_module, "DEFAULT_CHUNK_RECORDS", 1000)
    assert compute_statistics(iter(records), "pops") == expected
    path = tmp_path / "pops.ctrc"
    pack_trace(trace, path, chunk_records=1500)
    with ChunkedTrace(path) as chunked:
        assert compute_statistics(chunked, "pops") == expected
