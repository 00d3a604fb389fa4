"""Column width is storage, never meaning.

Every integer column of a :class:`~repro.trace.columnar.ColumnarTrace`
is an array of the narrowest unsigned typecode that holds its values: a
generated trace has ``B`` cpu and pid and ``I`` addresses, a binary
file load ``H`` cpu and pid, a ``.ctrc`` chunk ``Q`` throughout.  These
tests hold that the width changes nothing a user can see: results of
every protocol on every path, fingerprints and cache keys, checkpointed
windows, shared-memory transport and pickling are the same for narrow
columns as for ``Q`` ones (``tests/test_store_format.py`` pins the bytes
of ``.ctrc`` files written from them).
"""

import json
import pickle
from array import array
from dataclasses import replace

import pytest

import repro.core.simulator as simulator_module
from repro.core.simulator import Simulator
from repro.engine import Engine, ExecutionPlan, TraceArena
from repro.engine.core import _windows
from repro.protocols.registry import available_protocols
from repro.runner.cache import cache_key, trace_fingerprint
from repro.runner.checkpoint import CheckpointManager, result_to_json
from repro.store import ChunkedTrace, pack_trace
from repro.trace.columnar import COLUMNS, ColumnarTrace, column_format
from repro.trace.io import write_trace_binary
from repro.trace.record import RefType, TraceRecord
from repro.workloads.base import SyntheticWorkload
from repro.workloads.layout import AddressSpaceLayout
from repro.workloads.registry import make_trace, workload_config

TRACE_LENGTH = 3000
GEOMETRIES = (None, "256x2")


def widened(trace: ColumnarTrace, name: str | None = None) -> ColumnarTrace:
    """*trace* with the same values in ``Q`` integer columns."""
    return ColumnarTrace(
        name or trace.name,
        array("Q", trace.cpu),
        array("Q", trace.pid),
        trace.type_code,
        array("Q", trace.address),
        trace.flags,
        trace.description,
    )


def formats(trace: ColumnarTrace) -> list[str]:
    return [column_format(getattr(trace, name)) for name in COLUMNS]


def canonical(result) -> str:
    return json.dumps(result_to_json(result), sort_keys=True)


@pytest.fixture(scope="module")
def narrow():
    trace = ColumnarTrace.from_trace(make_trace("thor", length=TRACE_LENGTH, seed=9))
    assert formats(trace) == ["B", "B", "B", "I", "B"]
    return trace


@pytest.fixture(scope="module")
def wide(narrow):
    trace = widened(narrow)
    assert formats(trace) == ["Q", "Q", "B", "Q", "B"]
    return trace


# ----------------------------------------------------------------------
# Results, fingerprints and cache keys
# ----------------------------------------------------------------------


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=["infinite", "256x2"])
@pytest.mark.parametrize("path", ["default", "generic"])
@pytest.mark.parametrize("scheme", available_protocols())
def test_results_do_not_depend_on_width(
    narrow, wide, scheme, path, geometry, monkeypatch
):
    """Every protocol, on the transition tables and on the generic
    loop, gives the same result bit for bit at any width."""
    engaged = []
    kernel_run = simulator_module.kernel_run

    def spy(*args):
        ran = None if path == "generic" else kernel_run(*args)
        engaged.append(ran is not None)
        return ran

    monkeypatch.setattr(simulator_module, "kernel_run", spy)
    options = {} if geometry is None else {"geometry": geometry}
    simulator = Simulator()
    narrow_result = simulator.run(narrow, scheme, **options)
    wide_result = simulator.run(wide, scheme, **options)
    assert canonical(narrow_result) == canonical(wide_result)
    assert narrow_result == wide_result
    table = path == "default"  # every stock protocol runs on the tables
    assert engaged == [table, table]


@pytest.mark.parametrize("scheme", available_protocols())
def test_fingerprint_and_cache_key_do_not_depend_on_width(narrow, wide, scheme):
    fingerprint = trace_fingerprint(narrow)
    assert trace_fingerprint(wide) == fingerprint
    simulator = Simulator()
    for spec in (scheme, f"{scheme}@256x2"):
        assert cache_key(spec, simulator, fingerprint) is not None
        assert cache_key(spec, simulator, trace_fingerprint(wide)) == cache_key(
            spec, simulator, fingerprint
        )


# ----------------------------------------------------------------------
# Checkpointed windows
# ----------------------------------------------------------------------

SCHEMES = ["dir0b", "dragon", "berkeley", "dir1nb@256x2"]


def _sweep(trace, **engine) -> dict:
    outcome = Engine(**engine).run(ExecutionPlan(traces=[trace], schemes=SCHEMES))
    assert outcome.ok
    return {
        scheme: canonical(outcome.results[scheme][trace.name]) for scheme in SCHEMES
    }


def test_checkpointed_windows_straddle_ctrc_chunks(narrow, tmp_path):
    """Windows of 700 records over 1000-record ``Q`` chunks carry
    records across chunk boundaries; the run equals the narrow trace's
    uncheckpointed one."""
    pack_trace(narrow, tmp_path / "t.ctrc", chunk_records=1000)
    chunked = ChunkedTrace(tmp_path / "t.ctrc")
    assert chunked.name == narrow.name
    checkpointed = _sweep(
        chunked, checkpoint=CheckpointManager(tmp_path / "ckpt"), checkpoint_every=700
    )
    assert checkpointed == _sweep(narrow)


def test_checkpointed_run_over_a_narrow_in_memory_trace(narrow, wide, tmp_path):
    """The last window of an in-memory trace is carried: its buffers must
    take the columns' own width, or the values are misread."""
    expected = _sweep(wide)
    for trace, directory in ((narrow, "narrow"), (wide, "wide")):
        assert _sweep(
            trace,
            checkpoint=CheckpointManager(tmp_path / directory),
            checkpoint_every=700,
        ) == expected


def test_window_spanning_chunks_of_different_widths_widens():
    first = ColumnarTrace("a", [0, 1], [1, 2], [1, 1], [64, 128])
    second = ColumnarTrace("b", [2, 3], [300, 70000], [2, 1], [2**40, 192])
    assert formats(first)[:2] == ["B", "B"] and formats(second)[1] == "I"
    windows = list(_windows([first, second], 3))
    assert [len(window) for window in windows] == [3, 1]
    joined = ColumnarTrace(
        "window", [0, 1, 2, 3], [1, 2, 300, 70000], [1, 1, 2, 1],
        [64, 128, 2**40, 192],
    )
    assert windows[0] == joined[:3]
    assert windows[1] == joined[3:]
    assert formats(windows[0])[:4] == ["B", "I", "B", "Q"]


# ----------------------------------------------------------------------
# Shared memory and pickling
# ----------------------------------------------------------------------


def test_arena_of_every_width_under_a_pool_equals_inline(narrow):
    """B, H, I and Q columns all travel through shared memory in their
    own widths, and the pooled sweep equals the inline one."""
    mixed = ColumnarTrace(
        "mixed",
        array("B", narrow.cpu),
        array("H", narrow.pid),
        narrow.type_code,
        array("I", narrow.address),
        narrow.flags,
    )
    wide = widened(narrow, name="wide")
    plan = ExecutionPlan(traces=[mixed, wide], schemes=SCHEMES)
    inline = Engine().run(plan)
    pooled = Engine(jobs=2).run(ExecutionPlan(traces=[mixed, wide], schemes=SCHEMES))
    assert inline.ok and pooled.ok
    for scheme in SCHEMES:
        for name in ("mixed", "wide"):
            assert canonical(pooled.results[scheme][name]) == canonical(
                inline.results[scheme][name]
            )
    # The pooled sweep moved both traces into shared memory, width kept.
    assert isinstance(mixed.pid, memoryview) and isinstance(wide.pid, memoryview)
    assert formats(mixed) == ["B", "H", "B", "I", "B"]
    assert formats(wide) == ["Q", "Q", "B", "Q", "B"]


def test_pickled_shared_memory_trace_keeps_its_formats():
    trace = ColumnarTrace.from_trace(make_trace("pops", length=1000, seed=4))
    arena = TraceArena.create([trace])
    try:
        assert isinstance(trace.address, memoryview)
        copy = pickle.loads(pickle.dumps(trace))
        assert copy == trace
        assert formats(copy) == ["B", "B", "B", "I", "B"]
        assert isinstance(copy.cpu, array) and isinstance(copy.type_code, bytes)
        assert copy.to_records() == trace.to_records()
    finally:
        arena.dispose()


# ----------------------------------------------------------------------
# Bounds: widths picked, bytes per reference
# ----------------------------------------------------------------------


def test_from_records_picks_q_for_64_bit_values():
    top = 2**64 - 1
    records = [
        TraceRecord(1, 2, RefType.READ, 64),
        TraceRecord(3, 300, RefType.WRITE, 2**33),
        TraceRecord(top, top, RefType.READ, top),
        TraceRecord(0, 0, RefType.INSTR, 0),
    ]
    trace = ColumnarTrace.from_records(records)
    assert formats(trace) == ["Q", "Q", "B", "Q", "B"]
    assert trace.to_records() == records
    small = ColumnarTrace.from_records(records[:2])
    assert formats(small) == ["B", "H", "B", "Q", "B"]
    assert small.to_records() == records[:2]


def test_from_records_still_rejects_values_beyond_64_bits():
    class Loose:
        cpu, pid, ref_type, address = 0, 0, RefType.READ, 2**64
        system = lock = spin = False

    with pytest.raises(OverflowError):
        ColumnarTrace.from_records([TraceRecord(0, 0, RefType.READ, 64), Loose()])


def test_binary_file_loads_cpu_and_pid_as_h(tmp_path):
    records = make_trace("pops", length=500).records
    write_trace_binary(records, tmp_path / "t.bin")
    trace = ColumnarTrace.from_binary_file(tmp_path / "t.bin")
    assert formats(trace) == ["H", "H", "B", "Q", "B"]
    assert trace.to_records() == list(records)


def test_generator_widens_for_configs_that_need_it():
    """More than 256 processes need ``H`` sharers, and a layout whose
    regions reach past 32 bits needs ``Q`` addresses."""
    config = workload_config("pops", length=3000)
    many = SyntheticWorkload(replace(config, num_processes=300)).build().columns
    assert formats(many) == ["H", "H", "B", "I", "B"]
    assert max(many.pid) == 299
    far = replace(config, layout=AddressSpaceLayout(block_bytes=2**26))
    columns = SyntheticWorkload(far).build().columns
    assert formats(columns) == ["B", "B", "B", "Q", "B"]
    assert max(columns.address) >= 2**32


@pytest.mark.parametrize("name", ["pops", "thor", "pero"])
def test_generated_trace_takes_at_most_8_bytes_per_reference(name):
    trace = ColumnarTrace.from_trace(make_trace(name, length=1001))
    n = len(trace)
    column_bytes = sum(memoryview(getattr(trace, column)).nbytes for column in COLUMNS)
    assert column_bytes <= 8 * n
    arena = TraceArena.create([trace])
    try:
        segment = arena.descriptor["traces"][0]["segment"]
        # One 8-byte alignment pad per column at most.
        assert arena._mappings[segment].shm.size <= 8 * n + 8 * len(COLUMNS)
    finally:
        arena.dispose()
