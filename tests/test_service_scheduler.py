"""Scheduler behaviour: execution, dedup layers, shutdown, resume."""

import gc
import json
import time
import weakref

import pytest

import repro.runner.cache as cache_module
from repro.core.simulator import Simulator
from repro.runner.checkpoint import result_to_json
from repro.service.jobs import CANCELLED, DONE, QUEUED
from repro.service.scheduler import Scheduler
from repro.service.spec import TraceSpec, parse_job_spec
from repro.store.writer import pack_trace
from repro.trace.io import load_trace, write_trace_file
from repro.workloads.registry import make_trace

pytestmark = pytest.mark.service

SCHEMES = ["dir1nb", "wti", "dir0b", "dragon"]


def make_spec(**overrides):
    payload = {
        "schemes": ["dir0b", "dragon"],
        "traces": [{"workload": "pops", "length": 1500, "seed": 3}],
    }
    payload.update(overrides)
    return parse_job_spec(payload)


def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def direct_results(schemes, workload="pops", length=1500, seed=3):
    """Reference results straight from the simulator, as JSON payloads."""
    trace = make_trace(workload, length=length, seed=seed)
    simulator = Simulator()
    expected = {}
    for scheme in schemes:
        result = simulator.run(trace, scheme, trace_name=trace.name)
        result.scheme = scheme
        expected[scheme] = {trace.name: result_to_json(result)}
    return expected


@pytest.fixture
def scheduler():
    instance = Scheduler(workers=2, sim_jobs=1)
    instance.start()
    yield instance
    instance.shutdown(mode="drain", timeout=30.0)


def test_job_runs_bit_identical_to_direct_simulation(scheduler):
    job, deduplicated = scheduler.submit(make_spec())
    assert not deduplicated
    assert wait_for(lambda: job.finished)
    assert job.state == DONE
    assert job.results == direct_results(["dir0b", "dragon"])


def test_resubmission_served_from_result_memo(scheduler):
    first, _ = scheduler.submit(make_spec())
    assert wait_for(lambda: first.finished)
    second, _ = scheduler.submit(make_spec())
    assert wait_for(lambda: second.finished)
    assert second.results == first.results
    assert second.cell_sources["cache"] == 2
    assert second.cell_sources["simulated"] == 0
    assert scheduler.stats()["cells"]["simulated"] == 2


def test_disk_cache_survives_scheduler_restart(tmp_path):
    first = Scheduler(workers=1, state_dir=tmp_path / "state")
    first.start()
    job, _ = first.submit(make_spec())
    assert wait_for(lambda: job.finished)
    first.shutdown(mode="drain", timeout=30.0)

    second = Scheduler(workers=1, state_dir=tmp_path / "state")
    second.start()
    try:
        resubmit, _ = second.submit(make_spec(tags={"round": "two"}))
        assert wait_for(lambda: resubmit.finished)
        assert resubmit.cell_sources["cache"] == 2
        assert resubmit.cell_sources["simulated"] == 0
        assert resubmit.results == job.results
    finally:
        second.shutdown(mode="drain", timeout=30.0)


def test_job_level_dedup_returns_same_job(scheduler):
    spec = make_spec(dedup=True, traces=[{"workload": "thor", "length": 2000}])
    first, dedup_first = scheduler.submit(spec)
    second, dedup_second = scheduler.submit(spec)
    assert not dedup_first and second is first and dedup_second
    assert wait_for(lambda: first.finished)
    assert scheduler.stats()["jobs"]["deduplicated"] == 1


def test_trace_build_failure_poisons_only_its_cells(scheduler):
    spec = make_spec(
        traces=[
            {"workload": "pops", "length": 1500, "seed": 3},
            {"path": "/nonexistent/trace.file"},
        ]
    )
    job, _ = scheduler.submit(spec)
    assert wait_for(lambda: job.finished)
    assert job.state == DONE
    assert job.cell_errors == 2  # one per scheme for the bad trace
    assert job.results == direct_results(["dir0b", "dragon"])


def test_checkpoint_shutdown_parks_job_and_resume_is_bit_identical(tmp_path):
    state = tmp_path / "state"
    # Long enough per cell (~hundreds of ms) that the checkpoint
    # shutdown reliably lands while later cells are still pending, even
    # on a fast machine — the test needs a partially-complete job.
    spec = make_spec(
        schemes=SCHEMES, traces=[{"workload": "pops", "length": 60000, "seed": 9}]
    )

    first = Scheduler(workers=1, state_dir=state)
    first.start()
    job, _ = first.submit(spec)
    assert wait_for(lambda: job.completed_cells() >= 1)
    first.shutdown(mode="checkpoint")
    assert job.state == QUEUED
    done_before = job.completed_cells()
    assert 1 <= done_before < len(SCHEMES)

    manifest = json.loads(
        (state / "jobs" / job.id / "manifest.json").read_text("utf-8")
    )
    assert sum(len(v) for v in manifest["completed"].values()) == done_before

    second = Scheduler(workers=1, state_dir=state)
    second.start()
    try:
        resumed = second.jobs.get(job.id)
        assert wait_for(lambda: resumed.finished)
        assert resumed.state == DONE
        assert resumed.cell_sources["checkpoint"] == done_before
        assert resumed.results == direct_results(SCHEMES, length=60000, seed=9)
    finally:
        second.shutdown(mode="drain", timeout=30.0)


def test_recovery_restores_terminal_job_results(tmp_path):
    state = tmp_path / "state"
    first = Scheduler(workers=1, state_dir=state)
    first.start()
    job, _ = first.submit(make_spec())
    assert wait_for(lambda: job.finished)
    first.shutdown(mode="drain", timeout=30.0)

    second = Scheduler(workers=1, state_dir=state)
    second.start()
    try:
        restored = second.jobs.get(job.id)
        assert restored.state == DONE
        assert restored.results == job.results
    finally:
        second.shutdown(mode="drain", timeout=30.0)


def test_recovery_requeues_unstarted_jobs(tmp_path):
    state = tmp_path / "state"
    first = Scheduler(workers=1, state_dir=state)
    # Workers never started: both jobs stay queued, persisted on disk.
    a, _ = first.submit(make_spec(dedup=True))
    b, dedup = first.submit(make_spec(dedup=True))
    assert b is a and dedup  # dedup'd copy is not persisted twice
    c, _ = first.submit(make_spec(tags={"copy": "distinct"}))

    second = Scheduler(workers=1, state_dir=state)
    second.start()
    try:
        restored_a = second.jobs.get(a.id)
        restored_c = second.jobs.get(c.id)
        assert wait_for(lambda: restored_a.finished and restored_c.finished)
        assert restored_a.state == DONE and restored_c.state == DONE
        assert CANCELLED not in {restored_a.state, restored_c.state}
    finally:
        second.shutdown(mode="drain", timeout=30.0)


def test_parallel_sim_jobs_produce_identical_results():
    scheduler = Scheduler(workers=1, sim_jobs=2)
    scheduler.start()
    try:
        spec = make_spec(schemes=SCHEMES)
        job, _ = scheduler.submit(spec)
        assert wait_for(lambda: job.finished, timeout=120.0)
        assert job.state == DONE
        assert job.results == direct_results(SCHEMES)
    finally:
        scheduler.shutdown(mode="drain", timeout=30.0)


def test_stats_shape(scheduler):
    stats = scheduler.stats()
    assert {"uptime_s", "jobs", "cells", "queue_depth", "workers"} <= set(stats)
    assert stats["jobs"]["total"] == 0
    assert stats["cells"]["simulated"] == 0


def run_job(scheduler, spec):
    job, _ = scheduler.submit(spec)
    assert wait_for(lambda: job.finished)
    assert job.state == DONE
    return job


@pytest.fixture
def spies(monkeypatch):
    """Count ``TraceSpec.build`` and trace-fingerprint calls (delegating)."""
    calls = {"build": 0, "fingerprint": 0}
    build, fingerprint = TraceSpec.build, cache_module.fingerprint_trace

    def spy_build(self):
        calls["build"] += 1
        return build(self)

    def spy_fingerprint(trace):
        calls["fingerprint"] += 1
        return fingerprint(trace)

    monkeypatch.setattr(TraceSpec, "build", spy_build)
    # Every trace_fingerprint() call, whoever imported it, lands here.
    monkeypatch.setattr(cache_module, "fingerprint_trace", spy_fingerprint)
    return calls


def test_finished_job_holds_no_reference_to_its_trace(scheduler, monkeypatch):
    built = []
    build = TraceSpec.build

    def spy_build(self):
        trace = build(self)
        built.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(TraceSpec, "build", spy_build)
    run_job(scheduler, make_spec())
    gc.collect()
    assert built
    assert all(ref() is None for ref in built)


def test_repeated_job_neither_builds_nor_fingerprints(scheduler, spies):
    first = run_job(scheduler, make_spec())
    assert spies == {"build": 1, "fingerprint": 1}
    second = run_job(scheduler, make_spec(tags={"round": "two"}))
    assert spies == {"build": 1, "fingerprint": 1}
    assert second.cell_sources["cache"] == 2
    assert second.results == first.results


def test_ctrc_rewritten_in_place_is_refingerprinted(scheduler, spies, tmp_path):
    path = tmp_path / "shared.ctrc"
    pack_trace(make_trace("pops", length=1500, seed=3), path)
    spec = make_spec(traces=[{"path": str(path)}])
    first = run_job(scheduler, spec)
    run_job(scheduler, make_spec(traces=[{"path": str(path)}], tags={"n": 2}))
    assert spies["fingerprint"] == 1  # unchanged store: memo hit

    pack_trace(make_trace("pops", length=1700, seed=5), path)
    second = run_job(scheduler, make_spec(traces=[{"path": str(path)}], tags={"n": 3}))
    assert spies["fingerprint"] == 2
    assert second.cell_sources["simulated"] == 2
    assert second.results != first.results
    trace = load_trace(path)
    for scheme, per_trace in second.results.items():
        direct = Simulator().run(trace, scheme, trace_name=trace.name)
        direct.scheme = scheme
        assert per_trace == {trace.name: result_to_json(direct)}


def test_text_trace_is_refingerprinted_on_every_job(scheduler, spies, tmp_path):
    path = tmp_path / "plain.trace"
    write_trace_file(make_trace("pops", length=1500, seed=3), path)
    first = run_job(scheduler, make_spec(traces=[{"path": str(path)}]))
    assert spies["fingerprint"] == 1
    second = run_job(
        scheduler, make_spec(traces=[{"path": str(path)}], tags={"n": 2})
    )
    assert spies["fingerprint"] == 2
    assert second.cell_sources["cache"] == 2
    assert second.results == first.results


def test_private_cache_directory_removed_at_shutdown():
    scheduler = Scheduler(workers=1)
    directory = scheduler.result_cache.directory
    scheduler.start()
    try:
        run_job(scheduler, make_spec())
        assert len(scheduler.result_cache) == 2
    finally:
        scheduler.shutdown(mode="drain", timeout=30.0)
    assert not directory.exists()
