"""Column-emitting workload generation and lazily materialized traces.

The generator appends straight into packed columns; ``build()`` wraps
them in a :class:`Trace` that builds records only on first access.
The fingerprints pinned here were recorded from the record-emitting
generator this one replaced, so any change to the generated stream
(RNG draw order, truncation, migration, flags) fails them.
"""

from array import array
from dataclasses import replace

import pytest

from conftest import record_loop
from repro.core.simulator import Simulator, simulate
from repro.runner.cache import trace_fingerprint
from repro.trace.columnar import (
    FLAG_LOCK,
    FLAG_SPIN,
    FLAG_SYSTEM,
    ColumnarTrace,
    check_flags,
    iter_column_records,
)
from repro.trace.fingerprint import TraceHasher, fingerprint_trace
from repro.trace.record import RefType, TraceRecord
from repro.trace.stream import Trace
from repro.workloads.base import SyntheticWorkload, _Columns
from repro.workloads.registry import make_trace, stream_trace, workload_config

#: trace_fingerprint(make_trace(name, length=20_000)) of the
#: record-emitting generator.
PINNED = {
    "pops": "f6b4c776d01d3c2ef36daa51c690949a62894143e19951fcdf29b2f23f73c704",
    "thor": "a80dbe2338c8f9bf8df7b251d655045b91615e553bf591d82fcf9340207c97ec",
    "pero": "79a95458450d7bb491132dac407f854ed61495711519b9d3596b2f77f6ef9df7",
}


def single_process_config(length: int = 5000):
    """One process, no instruction fetches, several migration boundaries."""
    return replace(
        workload_config("pops", length=length),
        num_processes=1,
        instr_fraction=0.0,
        migration_interval=1000,
    )


def migrating_config(length: int = 5000):
    """Four processes that swap CPUs at every migration boundary."""
    return replace(
        workload_config("thor", length=length),
        instr_fraction=0.0,
        migration_interval=700,
        p_migrate=1.0,
    )


class TestPinnedFingerprints:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_paper_traces(self, name):
        assert trace_fingerprint(make_trace(name, length=20_000)) == PINNED[name]

    def test_single_process_without_instructions(self):
        trace = SyntheticWorkload(single_process_config()).build()
        assert trace.pids == [0]
        assert all(record.ref_type is not RefType.INSTR for record in trace)
        assert trace_fingerprint(trace) == (
            "007b37eacfe4f66cce611a437685fddd4642c27650e1f234abe1c437af3f2932"
        )

    def test_migrating_processes(self):
        trace = SyntheticWorkload(migrating_config()).build()
        assert trace_fingerprint(trace) == (
            "e677832d349172dd1c9907c65c508dbce4da4386cdc5ec8c4754ae3df7e9d7be"
        )


def first_round_rows(config) -> int:
    """Rows the scheduler's first round emits for *config*."""
    columns = _Columns()
    rounds = SyntheticWorkload(replace(config, length=10**9))._rounds(columns)
    next(rounds)
    return columns.total


def boundary_lengths(config) -> list[int]:
    one_round = first_round_rows(config)
    interval = config.migration_interval
    return sorted(
        {1, one_round - 1, one_round, one_round + 1, interval - 1, interval, interval + 1}
    )


class TestThreePathsAgree:
    """stream_trace, make_trace and the columns describe one stream."""

    @pytest.mark.parametrize("name", ["pops", "thor", "pero"])
    def test_paper_workloads_at_boundaries(self, name):
        config = workload_config(name, length=1)
        for length in boundary_lengths(config):
            streamed = list(stream_trace(name, length=length))
            built = make_trace(name, length=length)
            columns = ColumnarTrace.from_trace(make_trace(name, length=length))
            assert len(streamed) == length
            assert streamed == built.records == columns.to_records()

    @pytest.mark.parametrize("factory", [single_process_config, migrating_config])
    def test_pinned_configs_at_boundaries(self, factory):
        for length in boundary_lengths(factory()):
            config = factory(length)
            streamed = list(SyntheticWorkload(config).iter_records())
            built = SyntheticWorkload(config).build()
            assert len(streamed) == length
            assert streamed == built.records


class TestLazyRecords:
    def test_len_and_metadata_do_not_materialize(self):
        trace = make_trace("thor", length=3000)
        assert trace.columns is not None
        assert len(trace) == 3000
        assert trace.pids == [0, 1, 2, 3]
        assert trace.cpus == [0, 1, 2, 3]
        assert trace.columns is not None

    def test_from_trace_adopts_the_columns(self):
        trace = make_trace("pero", length=3000)
        columns = trace.columns
        adopted = ColumnarTrace.from_trace(trace)
        assert adopted is columns
        assert adopted.cpu is columns.cpu and adopted.address is columns.address
        assert trace.columns is not None  # still no records
        assert adopted.description == trace.description
        assert adopted.name == "pero"

    def test_from_trace_follows_a_renamed_trace(self):
        trace = make_trace("pops", length=500)
        trace.name = "renamed"
        adopted = ColumnarTrace.from_trace(trace)
        assert adopted.name == "renamed"
        assert adopted.address is trace.columns.address

    def test_materialization_releases_the_columns(self):
        trace = make_trace("pops", length=2000)
        records = trace.records
        assert trace.columns is None
        assert trace.records is records  # built once
        assert len(trace) == 2000 and trace[5] == records[5]

    def test_from_trace_repacks_current_records_after_materialization(self):
        trace = make_trace("pops", length=2000)
        original = ColumnarTrace.from_trace(trace)
        records = list(trace.records)
        records[0] = records[0].with_cpu(3)
        trace.records = records
        repacked = ColumnarTrace.from_trace(trace)
        assert repacked is not original
        assert repacked.cpu[0] == 3
        assert repacked.to_records() == records

    def test_iteration_and_indexing_materialize(self):
        for touch in (iter, lambda trace: trace[0]):
            trace = make_trace("thor", length=500)
            touch(trace)
            assert trace.columns is None

    def test_simulation_matches_the_record_trace(self):
        lazy = make_trace("pops", length=4000)
        assert simulate(lazy, "dir1nb") == record_loop(Simulator(), lazy, "dir1nb")
        assert lazy.columns is not None

    def test_equality_and_repr(self):
        assert make_trace("pops", length=300) == make_trace("pops", length=300)
        assert make_trace("pops", length=300) != make_trace("thor", length=300)
        assert repr(make_trace("pops", length=300)).startswith(
            "Trace(name='pops', records=300"
        )


class TestFingerprintFromColumns:
    @pytest.mark.parametrize("name", ["pops", "thor", "pero"])
    def test_digest_equals_the_record_path(self, name):
        trace = make_trace(name, length=5000)
        from_columns = fingerprint_trace(trace)
        assert trace.columns is not None  # fingerprinting built no records
        hasher = TraceHasher()
        hasher.update_records(trace.records)
        assert from_columns == hasher.hexdigest()
        assert fingerprint_trace(trace) == from_columns  # materialized now


class TestValidationKept:
    def test_spin_without_lock_rejected_in_one_pass(self):
        check_flags(bytes(range(4)) + bytes([FLAG_LOCK | FLAG_SPIN]))
        for bad in (FLAG_SPIN, FLAG_SPIN | FLAG_SYSTEM, 0x80 | FLAG_SPIN):
            with pytest.raises(ValueError, match="spin references must also be lock"):
                check_flags(bytearray([0, FLAG_LOCK, bad]))

    def test_negative_values_rejected_by_the_columns(self):
        columns = make_trace("pops", length=100).columns
        for column in (columns.cpu, columns.pid, columns.address):
            assert isinstance(column, array) and column.typecode == "Q"
            with pytest.raises(OverflowError):
                column.append(-1)

    def test_materialized_records_are_validated(self):
        columns = ColumnarTrace("bad", [0], [0], [1], [64], [FLAG_SPIN])
        with pytest.raises(ValueError, match="spin references must also be lock"):
            Trace.from_columns(columns).records
        with pytest.raises(ValueError, match="spin references must also be lock"):
            columns[0]

    def test_flag_table_matches_the_bit_tests(self):
        valid = [f for f in range(256) if not (f & FLAG_SPIN and not f & FLAG_LOCK)]
        codes = [f % 3 for f in valid]
        rows = len(valid)
        built = list(
            iter_column_records([1] * rows, [2] * rows, codes, [64] * rows, valid)
        )
        assert built == [
            TraceRecord(
                cpu=1,
                pid=2,
                ref_type=(RefType.INSTR, RefType.READ, RefType.WRITE)[code],
                address=64,
                system=bool(f & FLAG_SYSTEM),
                lock=bool(f & FLAG_LOCK),
                spin=bool(f & FLAG_SPIN),
            )
            for f, code in zip(valid, codes)
        ]
