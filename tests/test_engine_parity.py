"""Differential parity: every execution stack is the same engine.

The engine refactor's acceptance bar: the serial record path, the
columnar fast path, a multi-process pooled sweep, and a
service-scheduled job must produce *byte-identical* result payloads —
and checkpoint manifests written before the refactor must resume
cleanly after it.
"""

import json

import pytest

from conftest import record_loop
from repro.core.simulator import Simulator
from repro.engine import Engine, EngineMetrics, ExecutionPlan
from repro.errors import CheckpointError
from repro.runner.checkpoint import (
    MANIFEST_MAGIC,
    MANIFEST_VERSION,
    CheckpointManager,
    result_to_json,
)
from repro.service.scheduler import Scheduler
from repro.service.spec import parse_job_spec
from repro.trace.columnar import ColumnarTrace
from repro.workloads.registry import make_trace

SCHEMES = ["dir1nb", "wti", "dir0b", "dragon"]
WORKLOAD = {"workload": "pops", "length": 1500, "seed": 3}


@pytest.fixture(scope="module")
def trace():
    return make_trace(WORKLOAD["workload"], length=WORKLOAD["length"],
                      seed=WORKLOAD["seed"])


def canonical(results) -> str:
    """Results as deterministic JSON text, for byte-level comparison."""
    payload = {
        scheme: {
            name: (result if isinstance(result, dict) else result_to_json(result))
            for name, result in per_trace.items()
        }
        for scheme, per_trace in results.items()
    }
    return json.dumps(payload, sort_keys=True)


def test_all_execution_stacks_are_byte_identical(trace):
    """Record loop == engine == columnar input == pooled sweep == service job."""
    simulator = Simulator()
    record = {}
    for scheme in SCHEMES:
        result = record_loop(simulator, trace, scheme)
        result.scheme = scheme
        record[scheme] = {trace.name: result}
    serial = Engine().run(ExecutionPlan(traces=[trace], schemes=SCHEMES))
    assert serial.ok

    columnar = Engine().run(
        ExecutionPlan(traces=[ColumnarTrace.from_trace(trace)], schemes=SCHEMES)
    )
    pooled = Engine(jobs=2).run(ExecutionPlan(traces=[trace], schemes=SCHEMES))

    scheduler = Scheduler(workers=1, sim_jobs=1)
    scheduler.start()
    try:
        job, _ = scheduler.submit(
            parse_job_spec({"schemes": SCHEMES, "traces": [WORKLOAD]})
        )
        deadline_ok = _wait(lambda: job.finished)
    finally:
        scheduler.shutdown(mode="drain", timeout=30.0)
    assert deadline_ok and job.cell_errors == 0

    baseline = canonical(record)
    assert canonical(serial.results) == baseline
    assert canonical(columnar.results) == baseline
    assert canonical(pooled.results) == baseline
    assert canonical(job.results) == baseline


def _wait(predicate, timeout=60.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


# ----------------------------------------------------------------------
# Checkpoint-manifest compatibility across the refactor boundary
# ----------------------------------------------------------------------

def _pre_refactor_manifest(trace, completed_schemes):
    """A manifest exactly as the pre-engine runner serialized it."""
    simulator = Simulator()
    completed = {}
    for scheme in completed_schemes:
        result = record_loop(simulator, trace, scheme)
        result.scheme = scheme
        completed[scheme] = {trace.name: result_to_json(result)}
    return {
        "magic": MANIFEST_MAGIC,
        "version": MANIFEST_VERSION,
        "fingerprint": {
            "schemes": list(SCHEMES),
            "traces": [trace.name],
            "sharer_key": "pid",
        },
        "completed": completed,
        "failures": [],
    }


def test_pre_refactor_manifest_resumes_post_refactor(tmp_path, trace):
    """A hand-written old-format manifest restores and completes cleanly."""
    checkpoint_dir = tmp_path / "ckpt"
    checkpoint_dir.mkdir()
    manifest = _pre_refactor_manifest(trace, completed_schemes=SCHEMES[:2])
    (checkpoint_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True), "utf-8"
    )

    metrics = EngineMetrics()
    outcome = Engine(
        checkpoint=CheckpointManager(checkpoint_dir), resume=True, observer=metrics
    ).run(ExecutionPlan(traces=[trace], schemes=SCHEMES))

    assert outcome.ok
    # Only the two unfinished cells simulated; the restored pair did not.
    assert metrics.get("cells_started") == 2
    fresh = Engine().run(ExecutionPlan(traces=[trace], schemes=SCHEMES))
    assert canonical(outcome.results) == canonical(fresh.results)

    # The resumed run's manifest is complete and still old-shape.
    final = json.loads((checkpoint_dir / "manifest.json").read_text("utf-8"))
    assert set(final) == {"magic", "version", "fingerprint", "completed", "failures"}
    assert final["fingerprint"] == manifest["fingerprint"]
    assert sorted(final["completed"]) == sorted(SCHEMES)


def test_manifest_from_runner_resumes_through_engine(tmp_path, trace):
    """A checkpoint cut by one engine restores through a fresh one."""
    checkpoint_dir = tmp_path / "ckpt"
    first = Engine(checkpoint=CheckpointManager(checkpoint_dir)).run(
        ExecutionPlan(traces=[trace], schemes=SCHEMES)
    )
    assert first.ok

    metrics = EngineMetrics()
    resumed = Engine(
        checkpoint=CheckpointManager(checkpoint_dir), resume=True, observer=metrics
    ).run(ExecutionPlan(traces=[trace], schemes=SCHEMES))
    assert metrics.get("cells_started") == 0  # everything restored
    assert canonical(resumed.results) == canonical(first.results)


def test_resume_rejects_foreign_fingerprint(tmp_path, trace):
    checkpoint_dir = tmp_path / "ckpt"
    Engine(checkpoint=CheckpointManager(checkpoint_dir)).run(
        ExecutionPlan(traces=[trace], schemes=SCHEMES)
    )
    with pytest.raises(CheckpointError):
        Engine(checkpoint=CheckpointManager(checkpoint_dir), resume=True).run(
            ExecutionPlan(traces=[trace], schemes=["dir0b"])
        )

