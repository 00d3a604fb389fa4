"""Column-emitting workload generation and lazily materialized traces.

The generator appends straight into packed columns; ``build()`` wraps
them in a :class:`Trace` that builds records only on first access.
The fingerprints in ``PINNED`` were recorded from the record-emitting
generator this one replaced, and those in ``PINNED_KNOBS`` from the
per-step generator the quantum loop replaced, so any change to the
generated stream (RNG draw order, truncation, migration, flags) fails
them.
"""

import random
from array import array
from dataclasses import fields, replace

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
from repro.store import pack_trace, write_stream
from repro.workloads.base import SyntheticWorkload, WorkloadStream, _Columns
from repro.workloads.patterns import LocalityPicker
from repro.workloads.registry import make_trace, stream_trace, workload_config

#: trace_fingerprint(make_trace(name, length=20_000)) of the
#: record-emitting generator.
PINNED = {
    "pops": "f6b4c776d01d3c2ef36daa51c690949a62894143e19951fcdf29b2f23f73c704",
    "thor": "a80dbe2338c8f9bf8df7b251d655045b91615e553bf591d82fcf9340207c97ec",
    "pero": "79a95458450d7bb491132dac407f854ed61495711519b9d3596b2f77f6ef9df7",
}


#: Knobs the paper configurations never reach, each on a paper base:
#: 2-3 spin reads per blocked step, three whole instruction fetches per
#: data reference, no locks at all, system mode only (two processes, so
#: each wraps the 4,096-word kernel text), and one-step quanta.
KNOBS = {
    "spin-reads-2.5": ("thor", {"spin_reads_per_step": 2.5}),
    "instr-fraction-0.75": ("pops", {"instr_fraction": 0.75}),
    "no-locks": ("pero", {"num_locks": 0, "p_lock_attempt": 0.0}),
    "all-system": ("pops", {"system_fraction": 1.0, "num_processes": 2}),
    "quantum-1": ("thor", {"quantum": 1}),
}

#: trace_fingerprint at length 20_000 of each KNOBS config, from the
#: per-step generator.
PINNED_KNOBS = {
    "spin-reads-2.5":
        "44800e697e0c14c5b11435b721ac9d17979ce32c8fa96ee69eee833bd3deda12",
    "instr-fraction-0.75":
        "43f5f11d22fcab1da410f03a264c94736eba9e41ab1ef8a5daf6d4f64ddcc7b5",
    "no-locks": "3b11afb583fb81ab7ad4bd3fca40d7556b777114f75dac59ce713c63c5394fa4",
    "all-system": "d9dbfb0cc12dbccc9ebaea6f752d39d078647b1fe9023c23b62bb92dcdccecf1",
    "quantum-1": "0653bc884d6fa39243866b76f48a0c5e774a8c5577f12cae2cf32332093342ad",
}


def knob_config(knob: str, length: int = 20_000):
    base, overrides = KNOBS[knob]
    return replace(workload_config(base, length=length), **overrides)


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

    @pytest.mark.parametrize("knob", sorted(PINNED_KNOBS))
    def test_knobs_the_paper_configs_never_reach(self, knob):
        trace = SyntheticWorkload(knob_config(knob)).build()
        assert trace_fingerprint(trace) == PINNED_KNOBS[knob]

    def test_knob_configs_reach_their_branches(self):
        columns = SyntheticWorkload(knob_config("all-system")).build().columns
        assert set(columns.flags) <= {FLAG_SYSTEM}
        columns = SyntheticWorkload(knob_config("no-locks")).build().columns
        assert not any(flag & FLAG_LOCK for flag in columns.flags)


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

    @pytest.mark.parametrize(
        "factory",
        [single_process_config, migrating_config]
        + [
            pytest.param(
                lambda length=5000, knob=knob: knob_config(knob, length), id=knob
            )
            for knob in sorted(KNOBS)
        ],
    )
    def test_pinned_configs_at_boundaries(self, factory):
        for length in boundary_lengths(factory()):
            config = factory(length)
            streamed = list(WorkloadStream(config))
            built = SyntheticWorkload(config).build()
            columns = ColumnarTrace.from_trace(SyntheticWorkload(config).build())
            assert len(streamed) == length
            assert streamed == built.records == columns.to_records()

    @pytest.mark.parametrize("name", ["pops", "thor", "pero"])
    def test_rounds_concatenate_to_the_built_columns(self, name):
        built = make_trace(name, length=7000).columns
        rounds = [
            [bytes(column) for column in fields]
            for fields in stream_trace(name, length=7000).iter_columns()
        ]
        for index, column in enumerate(
            (built.cpu, built.pid, built.type_code, built.address, built.flags)
        ):
            assert b"".join(fields[index] for fields in rounds) == bytes(column)

    def test_a_stream_replays_identically(self):
        stream = stream_trace("thor", length=2500)
        assert list(stream) == list(stream) == make_trace("thor", length=2500).records


def inline_randbelow(rng: random.Random, n: int) -> int:
    """The bounded draw ``_Process.run`` inlines for ``rng.randrange(n)``."""
    bits = n.bit_length()
    value = rng.getrandbits(bits)
    while value >= n:
        value = rng.getrandbits(bits)
    return value


class TestInlineBoundedDraw:
    """The inlined draw is CPython's ``randrange``, bound for bound.

    A change to ``Random._randbelow`` would silently change every trace;
    it fails here instead.
    """

    @staticmethod
    def generator_bounds() -> set[int]:
        """Every region size of the paper layouts, and the hot and full
        sizes of their locality pickers."""
        bounds = set()
        for name in ("pops", "thor", "pero"):
            layout = workload_config(name, length=1).layout
            bounds |= {
                getattr(layout, field.name)
                for field in fields(layout)
                if field.name != "block_bytes"
            }
            for size in (layout.private_blocks, layout.shared_read_blocks):
                _p_hot, hot, full = LocalityPicker(size).draw_parameters
                bounds |= {hot, full}
        return bounds

    def test_same_sequence_as_randrange(self):
        bounds = self.generator_bounds() | {1, 2, 3, 1000} | {2**k for k in range(12)}
        for seed in (0, 1988, 2**40 + 7):
            for n in sorted(bounds):
                inline, reference = random.Random(seed), random.Random(seed)
                drawn = [inline_randbelow(inline, n) for _ in range(300)]
                assert drawn == [reference.randrange(n) for _ in range(300)], n
                # Both consumed the same bits, so later draws agree too.
                assert inline.random() == reference.random()

    def test_picker_parameters_drive_pick(self):
        picker = LocalityPicker(144)
        p_hot, hot, size = picker.draw_parameters
        assert (hot, size) == (21, 144)
        inline, reference = random.Random(5), random.Random(5)
        for _ in range(500):
            bound = hot if inline.random() < p_hot else size
            assert inline_randbelow(inline, bound) == picker.pick(reference)


class TestStreamedStore:
    """``write_stream`` packs a generated stream from its round columns."""

    @pytest.mark.parametrize("name", ["pops", "thor", "pero"])
    def test_same_bytes_as_packing_the_built_trace(self, name, tmp_path):
        chunk_records = 997  # divides no scheduling round
        for length in boundary_lengths(workload_config(name, length=1)):
            streamed, packed = tmp_path / "streamed.ctrc", tmp_path / "packed.ctrc"
            meta = write_stream(
                stream_trace(name, length=length), streamed, name,
                chunk_records=chunk_records,
            )
            pack_trace(
                make_trace(name, length=length), packed, name=name,
                description="", chunk_records=chunk_records,
            )
            assert streamed.read_bytes() == packed.read_bytes()
            assert meta["fingerprint"] == trace_fingerprint(
                make_trace(name, length=length)
            )

    @pytest.mark.parametrize("knob", sorted(KNOBS))
    def test_knob_configs_stream_the_same_bytes(self, knob, tmp_path):
        config = knob_config(knob, 6000)
        write_stream(WorkloadStream(config), tmp_path / "s.ctrc", chunk_records=1000)
        pack_trace(
            SyntheticWorkload(config).build(), tmp_path / "p.ctrc", name="s",
            description="", chunk_records=1000,
        )
        assert (tmp_path / "s.ctrc").read_bytes() == (tmp_path / "p.ctrc").read_bytes()


class _Rounds:
    """A stand-in column source whose rounds may be malformed."""

    def __init__(self, *rounds):
        self.rounds = rounds

    def iter_columns(self):
        for fields in self.rounds:
            if isinstance(fields, Exception):
                raise fields
            yield fields

    def __iter__(self):
        raise AssertionError("write_stream must take the column path")


GOOD_ROUND = ([0, 1], [0, 1], bytes([0, 1]), [64, 128], bytes([0, FLAG_LOCK]))


class TestColumnPathChecks:
    def assert_no_file(self, path):
        assert not path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_spin_without_lock_raises(self, tmp_path):
        bad = ([0], [0], bytes([1]), [64], bytes([FLAG_SPIN]))
        path = tmp_path / "bad.ctrc"
        with pytest.raises(ValueError, match="spin references must also be lock"):
            write_stream(_Rounds(GOOD_ROUND, bad), path)
        self.assert_no_file(path)

    def test_out_of_range_value_raises(self, tmp_path):
        path = tmp_path / "wide.ctrc"
        for wide in (2**64, -1):
            bad = ([0], [0], bytes([1]), [wide], bytes([0]))
            with pytest.raises(OverflowError):
                write_stream(_Rounds(GOOD_ROUND, bad), path)
            self.assert_no_file(path)

    def test_exception_mid_stream_leaves_no_file(self, tmp_path):
        path = tmp_path / "cut.ctrc"
        with pytest.raises(RuntimeError, match="generator died"):
            write_stream(
                _Rounds(GOOD_ROUND, RuntimeError("generator died")), path,
                chunk_records=1,
            )
        self.assert_no_file(path)

    def test_good_rounds_are_written(self, tmp_path):
        meta = write_stream(_Rounds(GOOD_ROUND, GOOD_ROUND), tmp_path / "ok.ctrc")
        assert meta["records"] == 4


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
