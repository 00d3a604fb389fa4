"""Differential tests for the per-block transition tables.

``repro.protocols.tables`` runs every stock protocol as a table filled
by the object model itself, on infinite caches and (through an LRU
layer per cache set) on every uniform finite geometry.  Every result
must equal the object model's — the generic columnar loop making the
same protocol calls — and so must the protocol state the tables write
back: whole runs, 777-record segmented runs and the golden corpus, for
all 13 protocols.
"""

import pickle
from pathlib import Path

import pytest

from conftest import record_loop
import repro.core.simulator as simulator_module
from repro.core.result import SimulationResult, merge_results
from repro.core.simulator import SimulationContext, Simulator
from repro.core.statespace import default_caches_for
from repro.memory.cache import FiniteCache
from repro.protocols.base import CoherenceProtocol
from repro.protocols.registry import available_protocols, make_protocol, protocol_class
from repro.protocols.tables import table_for
from repro.trace.columnar import ColumnarTrace
from repro.verify.corpus import Corpus
from repro.workloads.registry import make_trace

SCHEMES = available_protocols()
GEOMETRIES = (None, "2x1", "4x2", "64x2", "256x2", "1024x4")
TRACES = ("pops", "thor", "pero")
TRACE_LENGTH = 3000
SEGMENT = 777


def _state(protocol):
    """Every block's snapshot, plus each finite set's LRU order."""
    blocks = {block: protocol.snapshot_block(block) for block in protocol.known_blocks()}
    order = [
        [list(line_set) for line_set in cache._sets]
        for cache in protocol._caches
        if isinstance(cache, FiniteCache)
    ]
    return blocks, order


def _order(result):
    """The key order of a result's dicts, which its float sums follow."""
    return (
        list(result.event_counts),
        [(event, list(units)) for event, units in result.op_units.items()],
        list(result.clean_write_histogram),
    )


def _generic(simulator, trace, protocol, context=None):
    return simulator._run_columnar(
        trace,
        protocol,
        SimulationResult(scheme=protocol.name, trace_name=trace.name),
        context or SimulationContext(),
    )


@pytest.fixture(scope="module")
def traces():
    return [
        ColumnarTrace.from_trace(make_trace(name, length=TRACE_LENGTH, seed=13))
        for name in TRACES
    ]


@pytest.mark.parametrize(
    "geometry", GEOMETRIES, ids=[g or "infinite" for g in GEOMETRIES]
)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_tables_equal_the_object_model(traces, scheme, geometry):
    """Whole and segmented runs: same result, same protocol state after.

    A whole run's dicts also keep the generic loop's key order, so
    printed cycles per reference agree to the last digit.
    """
    simulator = Simulator()
    for trace in traces:
        caches = len(trace.pids)
        reference = make_protocol(scheme, caches, geometry=geometry)
        expected = _generic(simulator, trace, reference)

        whole = make_protocol(scheme, caches, geometry=geometry)
        result = simulator.run(trace, whole)
        assert result == expected, trace.name
        assert _order(result) == _order(expected), trace.name
        assert _state(whole) == _state(reference), trace.name

        segmented = make_protocol(scheme, caches, geometry=geometry)
        context = SimulationContext()
        parts = [
            simulator.run(
                trace.records[start : start + SEGMENT],
                segmented,
                trace_name=trace.name,
                context=context,
            )
            for start in range(0, len(trace), SEGMENT)
        ]
        assert merge_results(parts, name=trace.name) == expected, trace.name
        assert _state(segmented) == _state(reference), trace.name


def test_a_victims_ops_go_where_the_object_model_puts_them():
    """Yen-Fu appends its single-bit update after the install, so a
    dirty victim's write-back must land before it, not at the end."""
    simulator = Simulator()
    trace = ColumnarTrace.from_trace(make_trace("pops", length=20_000, seed=2))
    reference = make_protocol("yenfu", len(trace.pids), geometry="64x2")
    expected = _generic(simulator, trace, reference)
    result = simulator.run(trace, "yenfu", geometry="64x2")
    assert result == expected
    assert _order(result) == _order(expected)


def _corpus_cases():
    root = Path(__file__).parent / "corpus"
    for entry in Corpus(root).entries():
        yield pytest.param(entry, id=entry.name)


@pytest.mark.parametrize("entry", list(_corpus_cases()))
def test_tables_equal_the_object_model_on_the_golden_corpus(entry):
    trace = ColumnarTrace.from_trace(entry.load())
    geometry = entry.meta.get("geometry")
    simulator = Simulator()
    for scheme in SCHEMES:
        for shape in {None, "2x1", geometry}:
            caches = default_caches_for(scheme, max(1, len(trace.pids)))
            reference = make_protocol(scheme, caches, geometry=shape)
            expected = _generic(simulator, trace, reference)
            protocol = make_protocol(scheme, caches, geometry=shape)
            assert simulator.run(trace, protocol) == expected, (scheme, shape)
            assert _state(protocol) == _state(reference), (scheme, shape)


# ----------------------------------------------------------------------
# The table's state key is complete
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_representative_holds_only_block_0(traces, scheme):
    """After each filled move, the representative holds block 0 alone,
    and its snapshot rebuilds it exactly: the state key is complete."""
    simulator = Simulator()
    for trace in traces:
        simulator.run(trace, scheme, geometry="4x2")
    table = table_for(make_protocol(scheme, len(traces[0].pids)))
    filled = [
        (state, action, move[0])
        for state, row in enumerate(table.moves)
        for action, move in enumerate(row)
        if move is not None
    ]
    assert filled and any(any(row) for row in table.evictions)
    for state, action, next_state in filled:
        cache, rest = divmod(action - 2, 4)
        protocol = table.representative(state)
        handler = protocol.on_read if rest < 2 else protocol.on_write
        handler(cache, 0, bool(rest & 1))
        assert protocol.known_blocks() <= {0}
        rebuilt = table.representative(next_state)
        assert pickle.dumps(protocol) == pickle.dumps(rebuilt), (scheme, state, action)


class _GuardedCache(FiniteCache):
    """A finite cache that refuses a new line from outside ``_install``."""

    installing = False

    def put(self, block, state):
        if block not in self:
            assert _GuardedCache.installing, "a line entered a cache outside _install"
        return super().put(block, state)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_lines_enter_caches_only_through_install(monkeypatch, scheme):
    """Every eviction reaches the one victim hook, ``_evicted``."""
    real_install = CoherenceProtocol._install

    def install(self, cache, block, state, ops):
        _GuardedCache.installing = True
        try:
            real_install(self, cache, block, state, ops)
        finally:
            _GuardedCache.installing = False

    monkeypatch.setattr(CoherenceProtocol, "_install", install)
    trace = ColumnarTrace.from_trace(make_trace("thor", length=TRACE_LENGTH, seed=3))
    protocol = make_protocol(
        scheme, len(trace.pids), cache_factory=lambda: _GuardedCache(2, 2)
    )
    assert Simulator().run(trace, protocol).total_refs == len(trace)


# ----------------------------------------------------------------------
# What the tables refuse runs on the generic loop
# ----------------------------------------------------------------------


def _saboteur(caches):
    from repro.runner.faults import SaboteurProtocol

    return SaboteurProtocol(make_protocol("dir0b", caches), trigger_after=10**9)


def _subclass(caches):
    class Dir0BVariant(protocol_class("dir0b")):
        pass

    return Dir0BVariant(caches)


def _mixed_geometry(caches):
    shapes = iter([(4, 1), (8, 2)] * caches)
    return make_protocol("dir0b", caches, cache_factory=lambda: FiniteCache(*next(shapes)))


GENERIC_CASES = {
    "saboteur": (_saboteur, {}),
    "subclass": (_subclass, {}),
    "mixed-geometry": (_mixed_geometry, {}),
    "dir-capacity": (lambda caches: make_protocol("dir0b", caches, dir_capacity=4), {}),
    "check-invariants": (lambda caches: make_protocol("dir0b", caches), {"check_invariants": 1}),
}


@pytest.mark.parametrize("case", list(GENERIC_CASES))
def test_what_the_tables_refuse_takes_the_generic_loop(monkeypatch, case):
    build, options = GENERIC_CASES[case]
    returned = []
    real = simulator_module.kernel_run

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(simulator_module, "kernel_run", spy)
    trace = make_trace("pops", length=TRACE_LENGTH, seed=5)
    caches = len(trace.pids)
    result = Simulator(**options).run(trace, build(caches))
    assert all(ran is None for ran in returned)
    assert result == record_loop(Simulator(), trace, build(caches))


def test_a_held_but_unseen_block_takes_the_generic_loop(monkeypatch):
    from repro.trace.record import RefType, TraceRecord
    from repro.trace.stream import Trace

    def reading(address):
        return Trace("t", [TraceRecord(cpu=0, pid=0, ref_type=RefType.READ, address=address)])

    returned = []
    real = simulator_module.kernel_run

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    protocol = make_protocol("dirnnb", 1)
    Simulator().run(reading(0x100), protocol)
    monkeypatch.setattr(simulator_module, "kernel_run", spy)
    # A fresh context has never seen the block the cache holds.
    result = Simulator().run(reading(0x200), protocol, context=SimulationContext())
    assert returned == [None]
    assert result.total_refs == 1


def test_a_table_lock_held_at_a_fork_does_not_block_the_child():
    """A pool worker forked while another thread fills a table can fill it too."""
    import os
    import signal
    import threading

    trace = make_trace("pops", length=TRACE_LENGTH, seed=5)
    Simulator().run(trace, "illinois")
    table = table_for(make_protocol("illinois", len(trace.pids)))
    held, done = threading.Event(), threading.Event()

    def filler():  # another thread, in the middle of a fill
        with table._lock:
            held.set()
            done.wait()

    thread = threading.Thread(target=filler)
    thread.start()
    held.wait()
    try:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports by exit code
            signal.alarm(10)  # a child stuck on the lock dies instead
            try:
                Simulator().run(make_trace("pops", length=TRACE_LENGTH, seed=6), "illinois")
            finally:
                os._exit(0 if table._lock.acquire(timeout=5) else 1)
        _, status = os.waitpid(pid, 0)
    finally:
        done.set()
        thread.join()
    assert os.waitstatus_to_exitcode(status) == 0
