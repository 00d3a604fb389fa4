"""Trace containers."""

from repro.trace.stream import Trace, take

from conftest import make_records


def test_trace_basics():
    trace = Trace("t", make_records([(0, 5, "r", 0), (1, 6, "w", 4)]))
    assert len(trace) == 2
    assert trace.cpus == [0, 1]
    assert trace.pids == [5, 6]
    assert trace[0].address == 0
    assert [record.address for record in trace] == [0, 4]


def test_trace_materializes_generators():
    trace = Trace("g", (r for r in make_records([(0, 0, "r", 0)])))
    assert len(trace) == 1
    # Iterating twice works because the generator was materialized.
    assert list(trace) == list(trace)


def test_trace_filtered_and_head():
    trace = Trace("t", make_records([(0, 0, "r", 0), (0, 0, "w", 4), (0, 0, "r", 8)]))
    reads = trace.filtered(lambda record: record.is_read, name="reads")
    assert reads.name == "reads"
    assert len(reads) == 2
    assert len(trace.head(2)) == 2
    assert trace.head(2).name == "t"


def test_count_and_take():
    records = make_records([(0, 0, "r", i * 4) for i in range(10)])
    assert len(take(iter(records), 3)) == 3
    assert len(take(iter(records), 20)) == 10  # a short stream is taken whole
