"""Shared-memory arena lifecycle and batched-dispatch parity tests.

The :class:`~repro.engine.shm.TraceArena` is the pooled backend's
pickle-free trace transport; these tests hold its lifecycle guarantees
(create/attach/dispose, each trace copied in once, no ``/dev/shm``
segment outliving the traces it holds, crash containment) and that
batched dispatch over the arena produces exactly the outcomes of serial
in-process execution.
"""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.core.simulator import Simulator
from repro.engine.backends import (
    InlineBackend,
    ProcessPoolBackend,
    _POOLS,
    execute_batch,
    shutdown_pools,
)
from repro.engine.plan import ExecutionPlan
from repro.engine.shm import TraceArena, attach_arena, detach_all
from repro.protocols.registry import available_protocols
from repro.trace.columnar import COLUMNS, ColumnarTrace, column_format
from repro.workloads.registry import make_trace

TRACE_LENGTH = 2500


def _shm_segments() -> set[str]:
    """Names of live POSIX shared-memory segments (Linux: /dev/shm)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


@pytest.fixture(scope="module")
def columnar():
    return ColumnarTrace.from_trace(make_trace("pops", length=TRACE_LENGTH, seed=3))


@pytest.fixture(scope="module")
def columnar_thor():
    return ColumnarTrace.from_trace(make_trace("thor", length=TRACE_LENGTH, seed=5))


# ----------------------------------------------------------------------
# Arena lifecycle
# ----------------------------------------------------------------------


def test_arena_round_trips_traces(columnar, columnar_thor):
    arena = TraceArena.create([columnar, columnar_thor])
    assert arena is not None
    try:
        assert arena.trace_from(0) == columnar
        assert arena.trace_from(1) == columnar_thor
        # Reconstruction is memoized per index.
        assert arena.trace_from(0) is arena.trace_from(0)
    finally:
        arena.dispose()


def test_arena_traces_are_zero_copy_views(columnar):
    formats = [column_format(getattr(columnar, name)) for name in COLUMNS]
    assert formats == ["B", "B", "B", "I", "B"]  # a generated trace's widths
    arena = TraceArena.create([columnar])
    try:
        rebuilt = arena.trace_from(0)
        segment = arena.descriptor["traces"][0]["segment"]
        mapped = arena._mappings[segment].shm.buf.obj
        for name, fmt in zip(COLUMNS, formats):
            view = getattr(rebuilt, name)
            # Each column keeps its source's width and is a view of the
            # mapped segment, not a copy.
            assert isinstance(view, memoryview)
            assert view.format == fmt
            assert view.obj is mapped
        del rebuilt, view  # release the views so dispose() can unmap cleanly
    finally:
        arena.dispose()


def test_arena_descriptor_is_small_and_picklable(columnar, columnar_thor):
    import pickle

    arena = TraceArena.create([columnar, columnar_thor])
    try:
        blob = pickle.dumps(arena.descriptor)
        # The whole point: descriptor size is independent of trace length.
        assert len(blob) < 2048
    finally:
        arena.dispose()


def test_dispose_unlinks_segment(columnar):
    before = _shm_segments()
    arena = TraceArena.create([columnar])
    name = arena.descriptor["traces"][0]["segment"]
    assert name in _shm_segments()
    arena.dispose()
    assert name not in _shm_segments()
    assert _shm_segments() <= before


def test_attach_after_unlink_raises(columnar):
    arena = TraceArena.create([columnar])
    descriptor = arena.descriptor
    arena.dispose()
    detach_all()
    with pytest.raises(FileNotFoundError):
        attach_arena(descriptor)


def test_attach_memoizes_and_drops_stale_arenas(columnar, columnar_thor):
    first = TraceArena.create([columnar])
    second = TraceArena.create([columnar_thor])
    try:
        attached_first = attach_arena(first.descriptor)
        assert attach_arena(first.descriptor) is attached_first
        # Attaching a different segment replaces the memoized one.
        attached_second = attach_arena(second.descriptor)
        assert attached_second is not attached_first
        assert attach_arena(second.descriptor) is attached_second
    finally:
        detach_all()
        first.dispose()
        second.dispose()


def test_simulation_over_attached_arena_matches_original(columnar):
    arena = TraceArena.create([columnar])
    try:
        attached = attach_arena(arena.descriptor)
        simulator = Simulator()
        assert simulator.run(attached.trace_from(0), "dir0b") == simulator.run(
            columnar, "dir0b"
        )
    finally:
        detach_all()
        arena.dispose()


def test_execute_batch_reads_traces_from_arena(columnar):
    import pickle

    arena = TraceArena.create([columnar])
    try:
        from repro.engine.policies import RetryPolicy

        payload = {
            "simulator": Simulator(),
            "retry": RetryPolicy(),
            "arena": arena.descriptor,
            "cells": [
                {"spec": pickle.dumps("dir0b"), "key": "dir0b", "trace_index": 0},
                {"spec": pickle.dumps("wti"), "key": "wti", "trace_index": 0},
            ],
        }
        payloads = execute_batch(payload)
        assert [p["status"] for p in payloads] == ["ok", "ok"]
        serial = Simulator().run(columnar, "dir0b")
        from repro.runner.checkpoint import result_to_json

        assert payloads[0]["result"] == result_to_json(serial)
    finally:
        detach_all()
        arena.dispose()


# ----------------------------------------------------------------------
# Pooled sweeps: no leaked segments, parity, crash containment
# ----------------------------------------------------------------------


def _cells(*traces):
    return ExecutionPlan(traces=traces, schemes=available_protocols()).cells()


def _local_traces():
    """Fresh traces no segment holds yet (the module fixtures may be)."""
    return [
        ColumnarTrace.from_trace(make_trace(name, length=TRACE_LENGTH, seed=seed))
        for name, seed in (("pops", 3), ("thor", 5))
    ]


def test_pooled_sweep_leaves_no_shm_segments():
    """A segment outlives no trace it holds."""
    before = _shm_segments()
    traces = _local_traces()
    backend = ProcessPoolBackend(jobs=2)
    outcomes = backend.run(Simulator(), _cells(*traces))
    assert all(payload["status"] == "ok" for payload in outcomes.values())
    del traces
    gc.collect()
    assert _shm_segments() <= before


def test_second_sweep_over_the_same_traces_creates_no_segment():
    traces = _local_traces()
    backend = ProcessPoolBackend(jobs=2)
    first = backend.run(Simulator(), _cells(*traces))
    after_first = _shm_segments()
    second = backend.run(Simulator(), _cells(*traces))
    assert second == first
    assert _shm_segments() <= after_first


def test_moved_trace_columns_are_read_only():
    (trace, _) = _local_traces()
    trace.cpu[0] = 1  # an array column, still writable before the move
    ProcessPoolBackend(jobs=2).run(Simulator(), _cells(trace))
    for column in ("cpu", "pid", "type_code", "address", "flags"):
        with pytest.raises(TypeError):
            getattr(trace, column)[0] = 0


def test_moved_trace_simulates_as_before_in_the_parent():
    import pickle

    (trace, _) = _local_traces()
    # An unmoved copy with no derived data views of its own.
    unmoved = pickle.loads(pickle.dumps(trace))
    before = {
        scheme: Simulator().run(unmoved, scheme) for scheme in available_protocols()
    }
    assert TraceArena.create([trace]) is not None
    assert isinstance(trace.address, memoryview)
    for scheme, result in before.items():
        assert Simulator().run(trace, scheme) == result, scheme


def test_column_of_another_item_size_travels_in_its_own_width():
    """A column of any width is named with its format: a 4-byte pid
    column travels through shared memory, not by pickle, and reads the
    same values as inline."""
    from array import array

    (base, _) = _local_traces()
    trace = ColumnarTrace(
        base.name, base.cpu, array("I", base.pid), base.type_code, base.address,
        base.flags,
    )
    cells = _cells(trace)
    assert ProcessPoolBackend(jobs=2).run(Simulator(), cells) == InlineBackend().run(
        Simulator(), cells
    )
    assert isinstance(trace.pid, memoryview) and trace.pid.format == "I"


def test_names_still_held_at_exit_are_unlinked_quietly():
    """A moved trace alive at interpreter exit leaks no segment and
    leaves the resource tracker nothing to warn about."""
    script = (
        "from repro.core.simulator import Simulator\n"
        "from repro.engine.shm import TraceArena\n"
        "from repro.trace.columnar import ColumnarTrace\n"
        "from repro.workloads.registry import make_trace\n"
        "TRACE = ColumnarTrace.from_trace(make_trace('pops', length=500, seed=1))\n"
        # Only the trace's views keep the segment mapped at exit, and a
        # module-level function keeps the globals (the trace) alive past
        # the clearing of repro's own modules.
        "print(TraceArena.create([TRACE]).descriptor['traces'][0]['segment'])\n"
        "def simulate():\n"
        "    Simulator().run(TRACE, 'dir0b')\n"
        "simulate()\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().startswith("psm_")
    assert done.stdout.strip() not in _shm_segments()
    assert done.stderr == ""


@pytest.mark.parametrize("batch", [None, 1, 5])
def test_batched_pool_matches_inline(columnar, columnar_thor, batch):
    """Batched shm dispatch == serial in-process, across all protocols."""
    cells = _cells(columnar, columnar_thor)
    inline = InlineBackend().run(Simulator(), cells)
    pooled = ProcessPoolBackend(jobs=2, batch=batch).run(Simulator(), cells)
    assert pooled == inline


class _KillWorkerSpec:
    """A protocol factory that SIGKILLs pool workers but runs in the parent."""

    scheme_key = "killer"

    def __call__(self, num_caches):
        if multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        from repro.protocols.registry import make_protocol

        return make_protocol("wti", num_caches)


def test_worker_crash_is_contained_and_leaks_nothing():
    """A worker dying mid-batch falls back to the parent, leaks no shm,
    and retires the broken pool so the next sweep gets a fresh one."""
    before = _shm_segments()
    shutdown_pools()
    (trace, _) = _local_traces()
    backend = ProcessPoolBackend(jobs=2)
    cells = ExecutionPlan(
        traces=[trace], schemes=[_KillWorkerSpec(), "dir0b"]
    ).cells()
    outcomes = backend.run(Simulator(), cells)
    assert outcomes[0]["status"] == "ok"  # re-ran in the parent
    assert outcomes[1]["status"] == "ok"
    assert 2 not in _POOLS  # the broken pool was retired

    # The next sweep transparently warms a fresh pool.
    again = backend.run(
        Simulator(), ExecutionPlan(traces=[trace], schemes=["wti"]).cells()
    )
    assert again[0]["status"] == "ok"
    del cells, trace
    gc.collect()
    assert _shm_segments() <= before


def test_shutdown_pools_is_idempotent():
    shutdown_pools()
    shutdown_pools()
    assert not _POOLS
