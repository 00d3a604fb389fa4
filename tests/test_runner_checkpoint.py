"""Checkpoint/resume: snapshot formats, validation, and bit-for-bit resume."""

import json
import pickle

import pytest

from repro.core.simulator import Simulator, simulate
from repro.engine import Engine, EngineObserver, ExecutionPlan
from repro.errors import CheckpointError
from repro.protocols.registry import make_protocol
from repro.runner.checkpoint import (
    CELL_STATE_MAGIC,
    CELL_STATE_VERSION,
    CheckpointManager,
    result_from_json,
    result_to_json,
)
from repro.runner.faults import KillPoint, SaboteurProtocol
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import LazyTraceFile, write_trace_binary
from repro.workloads.registry import make_trace


@pytest.fixture
def trace():
    return make_trace("pops", length=2000, seed=3)


# ----------------------------------------------------------------------
# SimulationResult <-> JSON codec
# ----------------------------------------------------------------------

def test_result_json_roundtrip_is_exact(trace):
    result = simulate(trace, "dir1nb")
    payload = result_to_json(result)
    # The payload must survive an actual JSON serialization boundary.
    restored = result_from_json(json.loads(json.dumps(payload)))
    assert restored == result


def test_result_json_rejects_corrupt_payload(trace):
    payload = result_to_json(simulate(trace, "dir0b"))
    del payload["total_refs"]
    with pytest.raises(CheckpointError, match="corrupt"):
        result_from_json(payload)

    payload = result_to_json(simulate(trace, "dir0b"))
    payload["event_counts"]["not-an-event"] = 3
    with pytest.raises(CheckpointError, match="corrupt"):
        result_from_json(payload)


# ----------------------------------------------------------------------
# Manifest validation
# ----------------------------------------------------------------------

def test_missing_manifest_raises(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint manifest"):
        CheckpointManager(tmp_path / "ckpt").load_manifest()


def test_manifest_magic_and_version_are_enforced(tmp_path):
    manager = CheckpointManager(tmp_path / "ckpt")
    (tmp_path / "ckpt" / "manifest.json").write_text('{"magic": "something-else"}')
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        manager.load_manifest()

    manifest = manager.new_manifest({"schemes": ["dir0b"]})
    manifest["version"] = 99
    manager.save_manifest(manifest)
    with pytest.raises(CheckpointError, match="version"):
        manager.load_manifest()

    (tmp_path / "ckpt" / "manifest.json").write_text("{not json")
    with pytest.raises(CheckpointError, match="unreadable"):
        manager.load_manifest()


def test_manifest_fingerprint_mismatch_raises(tmp_path):
    manager = CheckpointManager(tmp_path / "ckpt")
    stored = {"schemes": ["dir1nb"], "traces": ["pops"], "sharer_key": "pid"}
    manager.save_manifest(manager.new_manifest(stored))
    assert manager.load_manifest(stored)["fingerprint"] == stored
    other = dict(stored, schemes=["dir0b"])
    with pytest.raises(CheckpointError, match="different experiment"):
        manager.load_manifest(other)


def test_resume_from_foreign_checkpoint_is_refused(tmp_path, trace):
    ckpt = tmp_path / "ckpt"
    Engine(checkpoint=CheckpointManager(ckpt)).run(
        ExecutionPlan(traces=[trace], schemes=["dir1nb"])
    )
    with pytest.raises(CheckpointError, match="different experiment"):
        Engine(checkpoint=CheckpointManager(ckpt), resume=True).run(
            ExecutionPlan(traces=[trace], schemes=["dir0b"])
        )


# ----------------------------------------------------------------------
# Cell-snapshot validation
# ----------------------------------------------------------------------

def test_cell_state_roundtrip_and_clear(tmp_path):
    manager = CheckpointManager(tmp_path / "ckpt")
    assert manager.load_cell_state() is None
    state = {"scheme": "dir1nb", "records_done": 42}
    manager.save_cell_state(state)
    assert manager.load_cell_state() == state
    manager.clear_cell_state()
    assert manager.load_cell_state() is None
    manager.clear_cell_state()  # idempotent


def test_cell_state_magic_version_and_payload_are_enforced(tmp_path):
    manager = CheckpointManager(tmp_path / "ckpt")
    cell_path = tmp_path / "ckpt" / "cell.pkl"

    cell_path.write_bytes(b"JUNKDATA")
    with pytest.raises(CheckpointError, match="bad magic"):
        manager.load_cell_state()

    cell_path.write_bytes(CELL_STATE_MAGIC + bytes([CELL_STATE_VERSION + 1]))
    with pytest.raises(CheckpointError, match="version"):
        manager.load_cell_state()

    cell_path.write_bytes(CELL_STATE_MAGIC + bytes([CELL_STATE_VERSION]) + b"\x80junk")
    with pytest.raises(CheckpointError, match="corrupt cell snapshot"):
        manager.load_cell_state()

    blob = CELL_STATE_MAGIC + bytes([CELL_STATE_VERSION]) + pickle.dumps([1, 2])
    cell_path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="not a dict"):
        manager.load_cell_state()


# ----------------------------------------------------------------------
# Windowed checkpointing is invisible in the results
# ----------------------------------------------------------------------

def test_checkpointed_run_matches_plain_run(tmp_path, trace):
    schemes = ["dir1nb", "dragon"]
    engine = Engine(
        checkpoint=CheckpointManager(tmp_path / "ckpt"), checkpoint_every=123
    )
    outcome = engine.run(ExecutionPlan(traces=[trace], schemes=schemes))
    plain = Engine().run(ExecutionPlan(traces=[trace], schemes=schemes))
    assert outcome.ok
    for scheme in ("dir1nb", "dragon"):
        assert outcome.result(scheme, trace.name) == plain.result(scheme, trace.name)


class StartedCells(EngineObserver):
    """Records the (scheme, trace) of every cell the engine announces."""

    def __init__(self):
        self.started = []

    def cell_started(self, task):
        self.started.append((task.scheme_key, task.trace_name))


def test_resume_of_finished_sweep_recomputes_nothing(tmp_path, trace):
    ckpt = tmp_path / "ckpt"
    plan = ExecutionPlan(traces=[trace], schemes=["dir1nb", "dir0b"])
    first = Engine(checkpoint=CheckpointManager(ckpt), checkpoint_every=500).run(plan)
    recorder = StartedCells()
    resumed = Engine(
        checkpoint=CheckpointManager(ckpt), resume=True, observer=recorder
    ).run(plan)
    assert recorder.started == []  # every cell restored from the manifest
    for scheme in ("dir1nb", "dir0b"):
        assert resumed.result(scheme, trace.name) == first.result(scheme, trace.name)


# ----------------------------------------------------------------------
# Kill and resume: the acceptance scenario
# ----------------------------------------------------------------------

def test_kill_and_resume_reproduces_uninterrupted_result(tmp_path, trace):
    """A run killed mid-cell, resumed, equals the uninterrupted run exactly."""
    def killer(num_caches):
        return SaboteurProtocol(
            make_protocol("dir1nb", num_caches), trigger_after=400, mode="kill"
        )
    killer.scheme_key = "dir1nb"

    ckpt = tmp_path / "ckpt"
    plan = ExecutionPlan(traces=[trace], schemes=[killer])
    KillPoint.arm()
    try:
        with pytest.raises(KeyboardInterrupt):
            Engine(checkpoint=CheckpointManager(ckpt), checkpoint_every=250).run(plan)
    finally:
        KillPoint.disarm()

    # The "dead process" left a consistent mid-cell snapshot behind.
    state = CheckpointManager(ckpt).load_cell_state()
    assert state is not None
    assert 0 < state["records_done"] < len(trace)

    resumed = Engine(
        checkpoint=CheckpointManager(ckpt), checkpoint_every=250, resume=True
    ).run(plan)
    plain = Engine().run(ExecutionPlan(traces=[trace], schemes=["dir1nb"]))
    assert resumed.ok
    assert resumed.result("dir1nb", trace.name) == plain.result("dir1nb", trace.name)


def test_midsweep_kill_resumes_only_unfinished_cells(tmp_path, trace):
    def killer(num_caches):
        return SaboteurProtocol(
            make_protocol("dir0b", num_caches), trigger_after=300, mode="kill"
        )
    killer.scheme_key = "dir0b"
    plan = ExecutionPlan(traces=[trace], schemes=["dir1nb", killer])

    ckpt = tmp_path / "ckpt"
    KillPoint.arm()
    try:
        with pytest.raises(KeyboardInterrupt):
            Engine(checkpoint=CheckpointManager(ckpt), checkpoint_every=200).run(plan)
    finally:
        KillPoint.disarm()

    recorder = StartedCells()
    resumed = Engine(
        checkpoint=CheckpointManager(ckpt),
        checkpoint_every=200,
        resume=True,
        observer=recorder,
    ).run(plan)
    # dir1nb came straight from the manifest
    assert recorder.started == [("dir0b", trace.name)]
    plain = Engine().run(ExecutionPlan(traces=[trace], schemes=["dir1nb", "dir0b"]))
    for scheme in ("dir1nb", "dir0b"):
        assert resumed.result(scheme, trace.name) == plain.result(scheme, trace.name)


# ----------------------------------------------------------------------
# Windows over a lazily read file: one read per attempt, columnar path
# ----------------------------------------------------------------------

@pytest.fixture
def lazy_path(tmp_path, trace):
    path = tmp_path / "pops.bin"
    write_trace_binary(trace.records, path)
    return path


@pytest.fixture
def file_reads(monkeypatch):
    """Every pass a :class:`LazyTraceFile` makes over its file."""
    reads = []
    real = LazyTraceFile.iter_chunks

    def counting(self, *args):
        reads.append(self.path)
        return real(self, *args)

    monkeypatch.setattr(LazyTraceFile, "iter_chunks", counting)
    return reads


def _require_columnar_windows(monkeypatch):
    """Fail unless every window reaches ``Simulator.run`` as columns."""
    real = Simulator.run

    def columns_only(self, window, *args, **kwargs):
        assert isinstance(window, ColumnarTrace), type(window)
        return real(self, window, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", columns_only)


def test_checkpointed_lazy_file_is_read_once_on_the_columnar_path(
    tmp_path, trace, lazy_path, file_reads, monkeypatch
):
    plain = Engine().run(
        ExecutionPlan(traces=[LazyTraceFile(lazy_path, "pops")], schemes=["dir0b"])
    )
    plain_reads = len(file_reads)
    file_reads.clear()

    _require_columnar_windows(monkeypatch)
    checkpointed = Engine(
        checkpoint=CheckpointManager(tmp_path / "ckpt"), checkpoint_every=300
    ).run(ExecutionPlan(traces=[LazyTraceFile(lazy_path, "pops")], schemes=["dir0b"]))
    assert checkpointed.ok
    assert len(file_reads) <= plain_reads
    assert checkpointed.result("dir0b", "pops") == plain.result("dir0b", "pops")


def test_resumed_lazy_file_run_restarts_from_the_snapshot(
    tmp_path, trace, lazy_path, file_reads, monkeypatch
):
    def killer(num_caches):
        return SaboteurProtocol(
            make_protocol("dir1nb", num_caches), trigger_after=500, mode="kill"
        )
    killer.scheme_key = "dir1nb"

    ckpt = tmp_path / "ckpt"
    KillPoint.arm()
    try:
        with pytest.raises(KeyboardInterrupt):
            Engine(checkpoint=CheckpointManager(ckpt), checkpoint_every=300).run(
                ExecutionPlan(traces=[LazyTraceFile(lazy_path, "pops")], schemes=[killer])
            )
    finally:
        KillPoint.disarm()
    done = CheckpointManager(ckpt).load_cell_state()["records_done"]
    assert 0 < done < len(trace)

    fed = []
    real_run = Simulator.run

    def feeding(self, window, *args, **kwargs):
        fed.append(len(window))
        return real_run(self, window, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", feeding)
    _require_columnar_windows(monkeypatch)
    file_reads.clear()
    resumed = Engine(
        checkpoint=CheckpointManager(ckpt), checkpoint_every=300, resume=True
    ).run(ExecutionPlan(traces=[LazyTraceFile(lazy_path, "pops")], schemes=[killer]))
    assert resumed.ok
    # The restored cell reads the file once and simulates only the
    # records after the snapshot.
    assert len(file_reads) == 1
    assert sum(fed) == len(trace) - done
    monkeypatch.undo()
    plain = Engine().run(ExecutionPlan(traces=[trace], schemes=["dir1nb"]))
    assert resumed.result("dir1nb", "pops") == plain.result("dir1nb", trace.name)
