"""Differential test: record path == columnar fast path == parallel sweep.

The columnar fast path and the parallel executor both promise results
*identical* to the plain record-by-record simulation — not statistically
close, equal.  This suite holds that for every registered protocol on a
mixed synthetic trace (instructions, private and shared data, read/write
mixes, multiple sharers), comparing full :class:`SimulationResult`
payloads: event counts, op units, histograms, transaction counts.
"""

import pytest

from conftest import record_loop
from repro.core.simulator import SimulationContext, Simulator
from repro.protocols.registry import available_protocols, make_protocol
from repro.runner.resilient import ResilientExperiment
from repro.trace.columnar import ColumnarTrace
from repro.workloads.registry import make_trace

TRACE_LENGTH = 6000


@pytest.fixture(scope="module")
def trace():
    return make_trace("pops", length=TRACE_LENGTH, seed=42)


@pytest.fixture(scope="module")
def columnar(trace):
    return ColumnarTrace.from_trace(trace)


@pytest.mark.parametrize("scheme", available_protocols())
def test_columnar_fast_path_is_bit_identical(trace, columnar, scheme):
    simulator = Simulator()
    record_result = record_loop(simulator, trace, scheme)
    columnar_result = simulator.run(columnar, scheme)
    assert columnar_result == record_result


@pytest.mark.parametrize("scheme", available_protocols())
def test_columnar_fast_path_matches_with_cpu_sharers(trace, columnar, scheme):
    simulator = Simulator(sharer_key="cpu")
    assert simulator.run(columnar, scheme) == record_loop(simulator, trace, scheme)


def test_segmented_columnar_run_matches_continuous(trace, columnar):
    """Windowed fast-path segments with a shared context == one pass.

    This is the checkpointed-sweep execution shape: the same protocol
    instance and context fed slice by slice.
    """
    simulator = Simulator()
    whole = record_loop(simulator, trace, "dir0b")

    protocol = make_protocol("dir0b", num_caches=len(columnar.pids))
    context = SimulationContext()
    total = None
    for start in range(0, len(columnar), 1024):
        segment = columnar.records[start : start + 1024]
        part = simulator.run(segment, protocol, trace_name=trace.name, context=context)
        if total is None:
            total = part
        else:
            from repro.core.result import merge_results

            total = merge_results([total, part], name=trace.name)
    total.scheme = whole.scheme
    assert total == whole


def test_parallel_sweep_matches_record_path(trace, columnar):
    """A 2-worker sweep over every protocol == the serial record path."""
    schemes = list(available_protocols())
    simulator = Simulator()
    serial = {
        scheme: record_loop(simulator, trace, scheme)
        for scheme in schemes
    }
    parallel = ResilientExperiment(
        traces=[columnar], schemes=schemes, jobs=2
    ).run()
    assert not parallel.all_failures()
    for scheme in schemes:
        assert parallel.results[scheme][trace.name] == serial[scheme]
