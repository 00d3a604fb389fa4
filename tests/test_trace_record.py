"""TraceRecord and RefType behaviour."""

import pytest

from repro.trace.record import (
    RefType,
    TraceRecord,
    data_refs,
    is_data,
    ref_type_from_code,
)


def test_ref_type_data_classification():
    assert not RefType.INSTR.is_data
    assert RefType.READ.is_data
    assert RefType.WRITE.is_data


def test_ref_type_short_codes_round_trip():
    for ref_type in RefType:
        assert ref_type_from_code(ref_type.short) is ref_type


def test_ref_type_from_unknown_code():
    with pytest.raises(ValueError):
        ref_type_from_code("x")


def test_record_fields():
    record = TraceRecord(cpu=2, pid=7, ref_type=RefType.WRITE, address=0x1234)
    assert record.is_data and record.is_write and not record.is_read
    assert not record.system and not record.lock and not record.spin


def test_record_rejects_negative_cpu():
    with pytest.raises(ValueError):
        TraceRecord(cpu=-1, pid=0, ref_type=RefType.READ, address=0)


def test_record_rejects_negative_pid():
    with pytest.raises(ValueError):
        TraceRecord(cpu=0, pid=-1, ref_type=RefType.READ, address=0)


def test_record_rejects_negative_address():
    with pytest.raises(ValueError):
        TraceRecord(cpu=0, pid=0, ref_type=RefType.READ, address=-4)


@pytest.mark.parametrize("field", ["cpu", "pid", "address"])
def test_record_fields_must_fit_64_bits(field):
    """Every trace is packed into unsigned 64-bit columns."""
    fields = {"cpu": 0, "pid": 0, "address": 0}
    widest = TraceRecord(ref_type=RefType.READ, **{**fields, field: 2**64 - 1})
    assert getattr(widest, field) == 2**64 - 1
    with pytest.raises(ValueError, match=field):
        TraceRecord(ref_type=RefType.READ, **{**fields, field: 2**64})


def test_spin_implies_lock():
    with pytest.raises(ValueError):
        TraceRecord(cpu=0, pid=0, ref_type=RefType.READ, address=0, spin=True)
    record = TraceRecord(
        cpu=0, pid=0, ref_type=RefType.READ, address=0, lock=True, spin=True
    )
    assert record.spin and record.lock


def test_with_cpu_and_with_pid_return_copies():
    record = TraceRecord(cpu=0, pid=1, ref_type=RefType.READ, address=8)
    moved = record.with_cpu(3)
    relabeled = record.with_pid(9)
    assert moved.cpu == 3 and moved.pid == 1
    assert relabeled.pid == 9 and relabeled.cpu == 0
    assert record.cpu == 0 and record.pid == 1


def test_records_are_hashable_and_comparable():
    a = TraceRecord(cpu=0, pid=0, ref_type=RefType.READ, address=16)
    b = TraceRecord(cpu=0, pid=0, ref_type=RefType.READ, address=16)
    assert a == b
    assert hash(a) == hash(b)


def test_data_refs_filters_instructions():
    records = [
        TraceRecord(cpu=0, pid=0, ref_type=RefType.INSTR, address=0),
        TraceRecord(cpu=0, pid=0, ref_type=RefType.READ, address=4),
        TraceRecord(cpu=0, pid=0, ref_type=RefType.WRITE, address=8),
    ]
    assert [r.address for r in data_refs(records)] == [4, 8]
    assert [is_data(r) for r in records] == [False, True, True]
