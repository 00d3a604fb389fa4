"""The trace-driven simulator."""

import pytest

from repro.core.simulator import Simulator, simulate
from repro.errors import ConfigurationError
from repro.memory.address import BlockMapper
from repro.protocols.events import EventType
from repro.protocols.registry import available_protocols, make_protocol
from repro.trace.columnar import ColumnarTrace
from repro.trace.stream import Trace

from conftest import make_records, record_loop, tiny_trace


def test_instructions_bypass_the_protocol(trace_tiny):
    result = simulate(trace_tiny, "dir0b")
    assert result.event_counts[EventType.INSTR] == 1
    assert result.total_refs == len(trace_tiny)


def test_tiny_trace_dir0b_classification(trace_tiny):
    result = simulate(trace_tiny, "dir0b")
    counts = result.event_counts
    assert counts[EventType.RM_FIRST_REF] == 2  # blocks A and C first reads
    assert counts[EventType.WM_FIRST_REF] == 1  # block B first write
    assert counts[EventType.RM_BLK_CLN] == 1  # P1 reads A while clean at P0
    assert counts[EventType.RM_BLK_DRTY] == 2  # A after write; B dirty at P1
    assert counts[EventType.WH_BLK_CLN] == 2  # P0 writes A, P0 writes C
    # One clean write had one other sharer, one had none -> mixed buckets.
    assert result.clean_write_histogram[1] == 1
    assert result.clean_write_histogram[0] == 1


def test_first_reference_detection_is_global(trace_tiny):
    """The first touch by ANY process counts; later processes miss normally."""
    result = simulate(trace_tiny, "dir1nb")
    assert result.event_counts[EventType.RM_FIRST_REF] == 2  # blocks A and C
    assert result.event_counts[EventType.WM_FIRST_REF] == 1  # block B


def test_same_block_addresses_share_first_ref():
    records = make_records([(0, 0, "r", 0x100), (1, 1, "r", 0x10C)])
    result = simulate(Trace("t", records), "dir0b")
    # 0x100 and 0x10C are in the same 16-byte block.
    assert result.event_counts[EventType.RM_FIRST_REF] == 1
    assert result.event_counts[EventType.RM_BLK_CLN] == 1


def test_block_mapper_granularity():
    records = make_records([(0, 0, "r", 0x100), (1, 1, "r", 0x110)])
    coarse = simulate(Trace("t", records), "dir0b", block_mapper=BlockMapper(64))
    fine = simulate(Trace("t", records), "dir0b", block_mapper=BlockMapper(16))
    assert coarse.event_counts[EventType.RM_BLK_CLN] == 1  # same 64B block
    assert fine.event_counts[EventType.RM_FIRST_REF] == 2  # different 16B blocks


def test_sharer_key_pid_vs_cpu():
    # Same pid migrates across CPUs: under pid-sharing there is one
    # cache, under cpu-sharing two.
    records = make_records([(0, 7, "r", 0x100), (1, 7, "r", 0x100)])
    by_pid = simulate(Trace("t", records), "dir0b", sharer_key="pid")
    by_cpu = simulate(Trace("t", records), "dir0b", sharer_key="cpu")
    assert by_pid.event_counts[EventType.RD_HIT] == 1
    assert by_cpu.event_counts[EventType.RM_BLK_CLN] == 1


def test_rejects_unknown_sharer_key():
    with pytest.raises(ConfigurationError):
        Simulator(sharer_key="thread")


def test_num_caches_inferred_from_trace(trace_tiny):
    result = simulate(trace_tiny, "dir0b")
    assert result.scheme == "dir0b"


def test_raw_stream_requires_num_caches(trace_tiny):
    with pytest.raises(ConfigurationError):
        simulate(iter(trace_tiny.records), "dir0b")
    result = simulate(iter(trace_tiny.records), "dir0b", num_caches=2)
    assert result.total_refs == len(trace_tiny)


def test_too_many_sharers_rejected():
    records = make_records([(i, i, "r", 0x100 * i) for i in range(4)])
    with pytest.raises(ConfigurationError):
        simulate(iter(records), "dir0b", num_caches=2)


def test_prebuilt_protocol_accepted(trace_tiny):
    protocol = make_protocol("dragon", 2)
    result = simulate(trace_tiny, protocol)
    assert result.scheme == "dragon"


def test_prebuilt_protocol_rejects_extra_options(trace_tiny):
    protocol = make_protocol("dragon", 2)
    with pytest.raises(ConfigurationError):
        simulate(trace_tiny, protocol, num_pointers=2)


def test_invariant_checking_runs(trace_tiny):
    # With checking on every reference, a correct protocol still passes.
    result = simulate(trace_tiny, "dirnnb", check_invariants=True)
    assert result.total_refs == len(trace_tiny)


def test_invariant_interval_validation():
    with pytest.raises(ConfigurationError):
        Simulator(check_invariants=-1)


def test_deterministic_across_runs(pops_small):
    a = simulate(pops_small, "dir0b")
    b = simulate(pops_small, "dir0b")
    assert a.event_counts == b.event_counts
    assert a.op_units == b.op_units
    assert a.clean_write_histogram == b.clean_write_histogram


def test_trace_name_override(trace_tiny):
    result = simulate(trace_tiny, "wti", trace_name="renamed")
    assert result.trace_name == "renamed"


# ----------------------------------------------------------------------
# The simulator picks the representation
# ----------------------------------------------------------------------

@pytest.fixture
def kernel_runs(monkeypatch):
    """The results ``kernel_run`` returned inside ``Simulator.run``."""
    import repro.core.simulator as simulator_module

    returned = []
    real = simulator_module.kernel_run

    def spy(*args):
        ran = real(*args)
        returned.append(ran)
        return ran

    monkeypatch.setattr(simulator_module, "kernel_run", spy)
    return returned


@pytest.mark.parametrize("scheme", available_protocols())
def test_column_backed_trace_runs_the_kernel(kernel_runs, scheme):
    from repro.workloads.registry import make_trace

    trace = make_trace("pops", length=5000)
    result = Simulator().run(trace, scheme)
    assert len(kernel_runs) == 1 and kernel_runs[0] is result
    assert trace.columns is not None  # no records were built


@pytest.mark.parametrize("scheme", available_protocols())
def test_record_backed_trace_matches_the_record_loop(scheme):
    from repro.workloads.registry import make_trace

    records = list(make_trace("thor", length=3000, seed=9).records)
    trace = Trace("thor", records)
    reference = record_loop(
        Simulator(), records, scheme, num_caches=len(trace.pids), trace_name="thor"
    )
    assert Simulator().run(trace, scheme) == reference


@pytest.mark.parametrize("scheme", ["dir0b", "dirnnb"])
def test_lazy_trace_file_streams_in_chunks(tmp_path, monkeypatch, scheme):
    """A lazily read file is decoded and simulated a chunk at a time."""
    import repro.trace.io as io_module
    from repro.trace.io import LazyTraceFile, read_trace_file, write_trace_file
    from repro.workloads.registry import make_trace

    path = tmp_path / "long.trace"
    write_trace_file(make_trace("pero", length=2500).records, path)
    chunks = []
    real = io_module.read_trace_chunks

    def counting(*args, **kwargs):
        for chunk in real(*args, **kwargs):
            chunks.append(len(chunk))
            yield chunk

    monkeypatch.setattr(io_module, "DEFAULT_CHUNK_RECORDS", 1000)
    lazy = LazyTraceFile(path)
    num_caches = len(lazy.pids)
    monkeypatch.setattr(io_module, "read_trace_chunks", counting)
    result = Simulator().run(lazy, scheme, num_caches=num_caches)
    assert chunks == [1000, 1000, 500]
    reference = record_loop(
        Simulator(), list(read_trace_file(path)), scheme,
        num_caches=num_caches, trace_name=lazy.name,
    )
    assert result == reference


def test_invariant_checking_runs_the_generic_loop(monkeypatch, kernel_runs):
    """A checked run never reaches the tables, whatever the input."""
    from repro.core.invariants import CheckedProtocol
    from repro.protocols.tables import TableSession
    from repro.workloads.registry import make_trace

    def refuse(*args):
        raise AssertionError("the tables ran")

    ran = []
    real = Simulator._run_columnar

    def spy(self, trace, protocol, *rest):
        ran.append(type(protocol))
        return real(self, trace, protocol, *rest)

    monkeypatch.setattr(TableSession, "run_chunk", refuse)
    monkeypatch.setattr(Simulator, "_run_columnar", spy)
    trace = make_trace("pops", length=2000)
    checked = Simulator(check_invariants=True).run(trace, "dir0b")
    assert kernel_runs == [None]
    assert ran == [CheckedProtocol]
    assert checked == record_loop(Simulator(), trace, "dir0b")

    ran.clear()
    records = ColumnarTrace.from_trace(trace).to_records()
    streamed = Simulator(check_invariants=True).run(
        iter(records), "dir0b", num_caches=len(trace.pids), trace_name=trace.name
    )
    assert ran == [CheckedProtocol]
    assert streamed == checked


@pytest.mark.parametrize("segment", [None, 777], ids=["whole", "segmented"])
@pytest.mark.parametrize("interval", [1, 7])
def test_checked_saboteur_fails_where_the_record_loop_does(interval, segment):
    """The same data reference raises the same InvariantViolation."""
    from repro.core.simulator import SimulationContext
    from repro.errors import InvariantViolation
    from repro.runner.faults import SaboteurProtocol
    from repro.workloads.registry import make_trace

    trace = ColumnarTrace.from_trace(make_trace("pops", length=6000, seed=3))
    records = trace.to_records()
    parts = [trace] if segment is None else [
        records[start : start + segment] for start in range(0, len(records), segment)
    ]
    simulator = Simulator(check_invariants=interval)

    def failure(run):
        saboteur = SaboteurProtocol(
            make_protocol("dir0b", len(trace.pids)), trigger_after=1500
        )
        context = SimulationContext()
        with pytest.raises(InvariantViolation) as raised:
            for part in parts:
                run(part, saboteur, context)
        return saboteur.refs_seen, str(raised.value)

    fast = failure(lambda part, p, context: simulator.run(part, p, context=context))
    reference = failure(
        lambda part, p, context: record_loop(simulator, part, p, context=context)
    )
    assert fast == reference
    assert fast[0] >= 1500


def test_a_record_generator_runs_the_tables(monkeypatch):
    import repro.core.simulator as simulator_module
    from repro.workloads.registry import make_trace

    sessions = []
    real = simulator_module.open_kernel_session

    def spy(*args):
        sessions.append(real(*args))
        return sessions[-1]

    monkeypatch.setattr(simulator_module, "open_kernel_session", spy)
    trace = make_trace("thor", length=3000, seed=4)
    records = ColumnarTrace.from_trace(trace).to_records()
    caches = len(trace.pids)
    result = Simulator().run((record for record in records), "dragon", num_caches=caches)
    assert len(sessions) == 1 and sessions[0] is not None
    assert result == record_loop(Simulator(), records, "dragon", num_caches=caches)
