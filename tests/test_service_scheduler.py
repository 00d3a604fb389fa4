"""Scheduler behaviour: execution, dedup layers, shutdown, resume."""

import gc
import json
import threading
import time
import weakref

import pytest

import repro.runner.cache as cache_module
import repro.service.scheduler as scheduler_module
from repro.core.simulator import Simulator
from repro.runner.checkpoint import result_to_json
from repro.service.jobs import CANCELLED, DONE, QUEUED, RECORD_FILE
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


def test_job_submitted_before_start_runs_once(tmp_path):
    scheduler = Scheduler(workers=1, state_dir=tmp_path / "state")
    job, _ = scheduler.submit(make_spec())
    scheduler.start()
    try:
        assert wait_for(lambda: scheduler.stats()["jobs"]["done"] == 1)
        assert wait_for(lambda: scheduler.jobs.all() == [])
        assert scheduler.jobs.get(job.id).cell_sources["simulated"] == 2
        assert scheduler.stats()["cells"]["checkpoint"] == 0
    finally:
        scheduler.shutdown(mode="drain", timeout=30.0)


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


def hold_claim(scheduler, scheme, trace):
    """Claim *scheme* on *trace*'s cell in the scheduler's in-flight table."""
    key = cache_module.cache_key(
        scheme, Simulator(), cache_module.trace_fingerprint(trace)
    )
    entry, owner = scheduler.result_cache.inflight.claim(key)
    assert owner
    return key, entry


def submit_behind_claim(scheduler, spec, monkeypatch):
    """Submit *spec* and return once its one cell waits on a held claim."""
    waiting = threading.Event()
    wait = cache_module.InFlightCell.wait

    def spy_wait(entry, timeout=None):
        waiting.set()
        return wait(entry, timeout)

    monkeypatch.setattr(cache_module.InFlightCell, "wait", spy_wait)
    job, _ = scheduler.submit(spec)
    assert waiting.wait(30.0)
    assert not job.finished
    return job


def test_coalesced_cell_is_filed_under_its_own_labels(scheduler, tmp_path, monkeypatch):
    trace = make_trace("pops", length=1500, seed=3)
    path = tmp_path / "renamed.trace"
    write_trace_file(trace, path)
    own_name = load_trace(path).name
    assert own_name != trace.name
    key, entry = hold_claim(scheduler, "dir0b", trace)

    traces = [{"path": str(path)}]
    spec = make_spec(schemes=["dir0b"], traces=traces)
    job = submit_behind_claim(scheduler, spec, monkeypatch)
    # The owner filed the cell under its own trace name, "pops".
    owner_result = direct_results(["dir0b"])["dir0b"][trace.name]
    scheduler.result_cache.put_json(key, owner_result)
    scheduler.result_cache.inflight.resolve_and_release(
        entry, {"status": "ok", "result": owner_result, "attempts": 1}
    )
    assert wait_for(lambda: job.finished)
    assert job.cell_sources["coalesced"] == 1
    assert job.results["dir0b"][own_name]["trace_name"] == own_name

    repeat = make_spec(schemes=["dir0b"], traces=traces, tags={"n": 2})
    cached = run_job(scheduler, repeat)
    assert cached.cell_sources["cache"] == 1
    assert job.results == cached.results


def test_abandoned_claim_is_simulated_by_its_waiter(scheduler, monkeypatch):
    trace = make_trace("pops", length=1500, seed=3)
    key, entry = hold_claim(scheduler, "dir0b", trace)
    job = submit_behind_claim(scheduler, make_spec(schemes=["dir0b"]), monkeypatch)
    scheduler.result_cache.inflight.abandon_and_release(entry)
    assert wait_for(lambda: job.finished)
    assert job.state == DONE
    assert job.cell_sources["simulated"] == 1
    assert job.results == direct_results(["dir0b"])
    assert scheduler.result_cache.get(key) is not None


# ----------------------------------------------------------------------
# Finished jobs live on disk, not in the scheduler
# ----------------------------------------------------------------------

def wire(job):
    """A job's status body and NDJSON stream exactly as the API sends them."""
    status = json.dumps(job.status(), sort_keys=True)
    events = "".join(json.dumps(event, sort_keys=True) + "\n"
                     for event in job.events_since(0))
    return status, events


def test_finished_jobs_leave_memory(scheduler):
    refs, ids = [], []
    for number in range(30):
        job, _ = scheduler.submit(make_spec(tags={"n": number}))
        refs.append(weakref.ref(job))
        ids.append(job.id)
        del job
    assert wait_for(lambda: scheduler.stats()["jobs"]["done"] == 30)

    def all_gone():
        gc.collect()
        return all(ref() is None for ref in refs)

    # A worker thread lets go of its last job at its next queue poll.
    assert wait_for(all_gone, timeout=5.0)
    assert scheduler.jobs.all() == []
    assert all(scheduler.jobs.get(job_id).state == DONE for job_id in ids)


def test_finished_job_answers_as_it_did_live(tmp_path):
    state = tmp_path / "state"
    first = Scheduler(workers=1, state_dir=state)
    first.start()
    try:
        job = run_job(first, make_spec())
        live = wire(job)
        rebuilt = first.jobs.get(job.id)
        assert rebuilt is not job
        assert wire(rebuilt) == live
        assert rebuilt.results == job.results
        assert rebuilt.cell_sources == job.cell_sources
        assert (state / "jobs" / job.id / RECORD_FILE).is_file()
    finally:
        first.shutdown(mode="drain", timeout=30.0)

    second = Scheduler(workers=1, state_dir=state)
    second.start()
    try:
        assert wire(second.jobs.get(job.id)) == live
    finally:
        second.shutdown(mode="drain", timeout=30.0)


def test_stats_job_counts_cover_finished_jobs(tmp_path, monkeypatch):
    # The first job fails once the others are queued behind it.
    gate = threading.Event()
    failures = [RuntimeError("no plan")]
    job_plan = scheduler_module._JobPlan

    def failing_first(spec):
        if failures:
            assert gate.wait(30.0)
            raise failures.pop()
        return job_plan(spec)

    monkeypatch.setattr(scheduler_module, "_JobPlan", failing_first)
    state = tmp_path / "state"
    first = Scheduler(workers=1, state_dir=state)
    first.start()
    try:
        jobs = [first.submit(make_spec(tags={"n": "fails"}))[0]]
        jobs.append(first.submit(make_spec(dedup=True))[0])
        assert first.submit(make_spec(dedup=True)) == (jobs[-1], True)
        jobs.append(first.submit(make_spec(tags={"n": "last"}))[0])
        gate.set()
        assert wait_for(lambda: all(job.finished for job in jobs))
        assert [job.state for job in jobs] == ["failed", "done", "done"]
        assert first.stats()["jobs"] == {
            "queued": 0, "running": 0, "done": 2, "failed": 1, "cancelled": 0,
            "total": 3, "submitted": 4, "deduplicated": 1,
        }
    finally:
        first.shutdown(mode="drain", timeout=30.0)

    second = Scheduler(workers=1, state_dir=state)
    second.start()
    try:
        assert second.stats()["jobs"] == {
            "queued": 0, "running": 0, "done": 2, "failed": 1, "cancelled": 0,
            "total": 3, "submitted": 0, "deduplicated": 0,
        }
        assert second.jobs.get(jobs[0].id).error == "RuntimeError: no plan"
    finally:
        second.shutdown(mode="drain", timeout=30.0)


def test_finished_job_without_a_record_answers_from_its_manifest(tmp_path):
    # A job directory as a server that kept finished jobs in memory left
    # it: job.json and manifest.json, no record file.
    state = tmp_path / "state"
    first = Scheduler(workers=1, state_dir=state)
    first.start()
    try:
        job = run_job(first, make_spec())
    finally:
        first.shutdown(mode="drain", timeout=30.0)
    record = state / "jobs" / job.id / RECORD_FILE
    record.unlink()

    second = Scheduler(workers=1, state_dir=state)
    second.start()
    try:
        assert second.stats()["jobs"]["done"] == 1
        restored = second.jobs.get(job.id)
        assert restored.state == DONE
        assert restored.results == job.results
        assert restored.cell_sources["checkpoint"] == 2
        assert record.is_file()  # later lookups read the record
        assert wire(second.jobs.get(job.id)) == wire(restored)
    finally:
        second.shutdown(mode="drain", timeout=30.0)


def test_private_job_records_removed_at_shutdown():
    scheduler = Scheduler(workers=1)
    root = scheduler.jobs.root
    scheduler.start()
    try:
        job = run_job(scheduler, make_spec())
        assert (root / job.id / RECORD_FILE).is_file()
    finally:
        scheduler.shutdown(mode="drain", timeout=30.0)
    assert not root.exists()


@pytest.mark.parametrize("job_id", ["", ".", "..", "../jobs", "a/b"])
def test_lookup_never_leaves_the_record_root(scheduler, job_id):
    from repro.errors import JobNotFoundError

    with pytest.raises(JobNotFoundError):
        scheduler.jobs.get(job_id)
