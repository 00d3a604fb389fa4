"""Queue, coalescing table, and job event-log mechanics."""

import threading

import pytest

from repro.errors import ServiceUnavailableError
from repro.runner.cache import InFlightTable
from repro.service.jobs import DONE, FAILED, Job, JobStore, QUEUED, RUNNING
from repro.service.queue import JobQueue
from repro.service.spec import parse_job_spec

pytestmark = pytest.mark.service


def make_spec(**overrides):
    payload = {
        "schemes": ["dir0b"],
        "traces": [{"workload": "pops", "length": 500}],
    }
    payload.update(overrides)
    return parse_job_spec(payload)


# ----------------------------------------------------------------------
# JobQueue
# ----------------------------------------------------------------------

def test_queue_orders_by_priority_then_fifo():
    queue = JobQueue()
    low = Job(make_spec(priority=0, tags={"n": "low"}))
    high = Job(make_spec(priority=10, tags={"n": "high"}))
    mid_a = Job(make_spec(priority=5, tags={"n": "a"}))
    mid_b = Job(make_spec(priority=5, tags={"n": "b"}))
    for job in (low, mid_a, mid_b, high):
        queue.submit(job)
    popped = [queue.pop(timeout=0.1) for _ in range(4)]
    assert popped == [high, mid_a, mid_b, low]


def test_queue_pop_times_out_empty():
    queue = JobQueue()
    assert queue.pop(timeout=0.01) is None


def test_queue_dedups_identical_active_specs_when_asked():
    queue = JobQueue()
    first = Job(make_spec(dedup=True))
    second = Job(make_spec(dedup=True))
    accepted, deduplicated = queue.submit(first)
    assert (accepted, deduplicated) == (first, False)
    accepted, deduplicated = queue.submit(second)
    assert (accepted, deduplicated) == (first, True)
    assert len(queue) == 1


def test_queue_without_dedup_flag_keeps_copies():
    queue = JobQueue()
    queue.submit(Job(make_spec()))
    _, deduplicated = queue.submit(Job(make_spec()))
    assert not deduplicated
    assert len(queue) == 2


def test_queue_dedup_releases_after_job_finished():
    queue = JobQueue()
    first = Job(make_spec(dedup=True))
    queue.submit(first)
    first.set_state(RUNNING)
    first.set_state(DONE)
    queue.job_finished(first)
    accepted, deduplicated = queue.submit(Job(make_spec(dedup=True)))
    assert not deduplicated and accepted is not first


def test_closed_queue_refuses_submissions():
    queue = JobQueue()
    queue.close()
    with pytest.raises(ServiceUnavailableError):
        queue.submit(Job(make_spec()))


def test_drain_empties_queue_in_priority_order():
    queue = JobQueue()
    a = Job(make_spec(priority=1, tags={"n": "a"}))
    b = Job(make_spec(priority=9, tags={"n": "b"}))
    queue.submit(a)
    queue.submit(b)
    assert queue.drain() == [b, a]
    assert len(queue) == 0


# ----------------------------------------------------------------------
# InFlightTable
# ----------------------------------------------------------------------

def test_inflight_first_claim_owns_then_waiters_coalesce():
    table = InFlightTable()
    entry, owner = table.claim("cell-1")
    assert owner
    same, owner2 = table.claim("cell-1")
    assert not owner2 and same is entry
    table.resolve_and_release(entry, {"status": "ok", "result": {"x": 1}})
    assert entry.wait(0.1)
    assert entry.outcome == {"status": "ok", "result": {"x": 1}}
    assert len(table) == 0


def test_inflight_abandon_wakes_waiters_empty_handed():
    table = InFlightTable()
    entry, _ = table.claim("cell-2")
    woke = []
    thread = threading.Thread(
        target=lambda: woke.append(entry.wait(2.0) and entry.abandoned)
    )
    thread.start()
    table.abandon_and_release(entry)
    thread.join(timeout=5.0)
    assert woke == [True]
    # The key is claimable again after abandonment.
    _, owner = table.claim("cell-2")
    assert owner


# ----------------------------------------------------------------------
# Job event log
# ----------------------------------------------------------------------

def test_job_records_cells_and_emits_sequenced_events():
    job = Job(make_spec(schemes=["dir0b", "dragon"]))
    job.set_state(RUNNING)
    job.record_cell(
        scheme="dir0b", trace_name="pops", index=0, source="simulated",
        payload={"status": "ok", "result": {"total_refs": 1}, "attempts": 1},
    )
    job.record_cell(
        scheme="dragon", trace_name="pops", index=1, source="cache",
        payload={"status": "error", "category": "ProtocolError",
                 "message": "boom", "attempts": 3},
    )
    job.set_state(DONE)
    events = job.events_since(0)
    assert [event["seq"] for event in events] == [0, 1, 2]
    assert events[0]["type"] == "cell" and events[0]["status"] == "ok"
    assert events[1]["error"]["category"] == "ProtocolError"
    assert events[2]["type"] == "job" and events[2]["state"] == DONE
    assert job.cell_errors == 1
    assert job.results["dir0b"]["pops"] == {"total_refs": 1}


def test_job_stream_events_follows_until_terminal():
    job = Job(make_spec())
    collected = []

    def consume():
        collected.extend(job.stream_events(poll=0.05))

    thread = threading.Thread(target=consume)
    thread.start()
    job.record_cell(
        scheme="dir0b", trace_name="pops", index=0, source="simulated",
        payload={"status": "ok", "result": {}, "attempts": 1},
    )
    job.set_state(DONE)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert [event["type"] for event in collected] == ["cell", "job"]


def test_job_status_snapshot_shape():
    job = Job(make_spec())
    status = job.status()
    assert status["state"] == QUEUED
    assert status["cells"]["total"] == 1
    assert status["cells"]["completed"] == 0
    assert "results" not in status


def test_job_terminal_state_is_sticky():
    job = Job(make_spec())
    job.set_state(DONE)
    job.set_state(RUNNING)
    assert job.state == DONE


def test_job_store_state_counts():
    store = JobStore()
    a, b = Job(make_spec()), Job(make_spec())
    store.add(a)
    store.add(b)
    b.set_state(RUNNING)
    counts = store.state_counts()
    assert counts[QUEUED] == 1 and counts[RUNNING] == 1
    assert len(store) == 2


def test_job_store_unknown_id_raises():
    from repro.errors import JobNotFoundError

    with pytest.raises(JobNotFoundError):
        JobStore().get("nope")


def test_job_store_retires_a_finished_job_to_its_record():
    store = JobStore()
    job = Job(make_spec(schemes=["dir0b", "dragon"]))
    store.add(job)
    job.record_cell(scheme="dir0b", trace_name="pops", index=0, source="cache",
                    payload={"status": "ok", "result": {"refs": 1}})
    job.record_cell(scheme="dragon", trace_name="pops", index=1, source="simulated",
                    payload={"status": "error", "category": "ProtocolError",
                             "message": "boom"})
    job.set_state(FAILED, error="RuntimeError: lost")
    store.retire(job)
    assert store.all() == [] and len(store) == 1
    assert store.state_counts()[FAILED] == 1

    rebuilt = store.get(job.id)
    assert rebuilt is not job
    assert rebuilt.status() == job.status()
    assert "results" not in rebuilt.status()  # as for any failed job
    assert rebuilt.results == job.results
    assert rebuilt.events_since(0) == job.events_since(0)
    assert list(rebuilt.stream_events(poll=0.01)) == job.events_since(0)
    store.close()
    assert not store.root.exists()
