"""The scheduler's fabric mode: fleet execution behind the job API.

With ``Scheduler(fabric_db=...)`` the service keeps its whole contract
— spec validation, dedup, coalescing, events, ``/stats`` — but owned
cells are executed by lease-based fabric workers, and jobs survive the
scheduler process itself (recovery straight from the fabric db, no
``state_dir`` required).
"""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from repro.errors import JobSpecError
from repro.fabric.chaos import canonical_digest, serial_results
from repro.fabric.queue import DurableCellQueue
from repro.service.api import ServiceServer
from repro.service.jobs import Job, JobStore
from repro.service.scheduler import Scheduler
from repro.service.spec import parse_job_spec

pytestmark = pytest.mark.service

SPEC = {
    "schemes": ["dir0b", "wti"],
    "traces": [{"workload": "pops", "length": 800, "seed": 4}],
}


def wait_terminal(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if job.finished:
            return
        time.sleep(0.05)
    pytest.fail(f"job {job.id} still {job.state} after {timeout}s")


def get_json(url):
    return json.load(urllib.request.urlopen(url))


class TestFabricMode:
    def test_job_runs_on_the_fleet_bit_identical(self, tmp_path):
        scheduler = Scheduler(
            workers=1, fabric_db=tmp_path / "fabric.db", fabric_workers=2,
            lease_s=10.0,
        )
        scheduler.start()
        try:
            spec = parse_job_spec(dict(SPEC))
            job, deduplicated = scheduler.submit(spec)
            assert not deduplicated
            wait_terminal(job)
            assert job.state == "done"
            # Every cell came through the fleet, none in-process.
            assert job.cell_sources["fabric"] == spec.cell_count()
            assert job.cell_sources["simulated"] == 0
            assert canonical_digest(job.results) == canonical_digest(
                serial_results(spec)
            )
            stats = scheduler.stats()
            assert stats["cells"]["fabric"] == spec.cell_count()
            assert stats["fabric"]["cells"]["done"] == spec.cell_count()
            assert stats["fabric"]["duplicate_completions"] == 0
        finally:
            scheduler.shutdown()

    def test_repeat_job_is_memo_resolved_not_resimulated(self, tmp_path):
        scheduler = Scheduler(
            workers=1, fabric_db=tmp_path / "fabric.db", fabric_workers=1
        )
        scheduler.start()
        try:
            spec = parse_job_spec(dict(SPEC))
            first, _ = scheduler.submit(spec)
            wait_terminal(first)
            second, _ = scheduler.submit(parse_job_spec(dict(SPEC)))
            wait_terminal(second)
            assert second.state == "done"
            assert second.cell_sources["cache"] == spec.cell_count()
            assert second.cell_sources["fabric"] == 0
            assert second.results == first.results
            # The fabric never saw the second job's cells at all.
            assert scheduler.fabric.stats()["cells"]["done"] == spec.cell_count()
        finally:
            scheduler.shutdown()

    def test_job_finished_before_submit_returns_leaves_no_pending_row(
        self, tmp_path
    ):
        """A cache-served repeat can finish while ``submit`` is still
        counting it: its fabric row must already exist to be marked
        terminal, or a restarted server on the db runs the job again."""
        db = tmp_path / "fabric.db"
        scheduler = Scheduler(workers=1, fabric_db=db, fabric_workers=1)
        scheduler.start()
        try:
            first, _ = scheduler.submit(parse_job_spec(dict(SPEC)))
            wait_terminal(first)
            bump = scheduler.metrics.bump

            def slow_bump(name, *args, **kwargs):
                if name == "jobs_submitted":
                    time.sleep(1.0)  # the repeat settles meanwhile
                bump(name, *args, **kwargs)

            scheduler.metrics.bump = slow_bump
            repeat, _ = scheduler.submit(parse_job_spec(dict(SPEC)))
            assert repeat.state == "done"
            assert repeat.cell_sources["cache"] == 2
            assert scheduler.jobs.wait_idle(30.0)
        finally:
            scheduler.shutdown()

        fabric = DurableCellQueue(db)
        assert fabric.job_state(repeat.id) == "done"
        assert repeat.id not in {row["id"] for row in fabric.pending_jobs()}
        restarted = Scheduler(workers=1, fabric_db=db, fabric_workers=1)
        restarted.start()
        try:
            assert len(restarted.jobs) == 0  # nothing recovered, nothing to run
            assert restarted.jobs.wait_idle(30.0)
            assert restarted.stats()["cells"] == dict.fromkeys(
                ("simulated", "cache", "coalesced", "checkpoint", "fabric", "errors"),
                0,
            )
        finally:
            restarted.shutdown()

    def test_restarted_scheduler_recovers_jobs_from_the_fabric(self, tmp_path):
        db = tmp_path / "fabric.db"
        # No in-process workers and no external fleet: the job's cells
        # reach the db but nobody executes them...
        scheduler = Scheduler(workers=1, fabric_db=db, fabric_workers=0)
        scheduler.start()
        spec = parse_job_spec(dict(SPEC))
        job, _ = scheduler.submit(spec)
        fabric = DurableCellQueue(db)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if fabric.stats()["cells"]["pending"] == spec.cell_count():
                break
            time.sleep(0.05)
        else:
            pytest.fail("cells never reached the fabric")
        # ...and the service dies mid-job (checkpoint stop, no state_dir).
        scheduler.shutdown(mode="checkpoint")

        # A fresh scheduler on the same db — still no state_dir — finds
        # the orphaned job and a fleet finishes it under the same id.
        revived = Scheduler(workers=1, fabric_db=db, fabric_workers=2)
        revived.start()
        try:
            recovered = revived.jobs.get(job.id)
            wait_terminal(recovered, timeout=90.0)
            assert recovered.state == "done"
            assert canonical_digest(recovered.results) == canonical_digest(
                serial_results(spec)
            )
        finally:
            revived.shutdown()

    def test_dead_letters_fail_the_job_and_list_in_the_dlq(self, tmp_path):
        db = tmp_path / "fabric.db"
        scheduler = Scheduler(
            workers=1, fabric_db=db, fabric_workers=0, lease_s=0.2
        )
        server = ServiceServer(scheduler, port=0)
        server.start()
        try:
            # max_attempts=1 + a worker that leases and dies (simulated
            # here by leasing and never settling): the reaper
            # dead-letters the cell and the job fails loudly.
            spec = parse_job_spec(
                {
                    "schemes": ["dir0b"],
                    "traces": [{"workload": "pops", "length": 400, "seed": 1}],
                    "max_attempts": 1,
                }
            )
            job, _ = scheduler.submit(spec)
            fabric = DurableCellQueue(db)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if fabric.lease("crashy-worker", lease_s=0.2) is not None:
                    break
                time.sleep(0.05)
            wait_terminal(job, timeout=60.0)
            assert job.state == "done"  # the job completes...
            assert job.cell_errors == 1  # ...with the cell failure contained
            dlq = get_json(server.url + "/dlq")
            assert dlq["enabled"]
            assert len(dlq["dead"]) == 1
            assert dlq["dead"][0]["scheme_key"] == "dir0b"
            stats = get_json(server.url + "/stats")
            assert stats["fabric"]["dead_letters"] == 1
        finally:
            server.stop()

    def test_concurrent_jobs_sharing_a_cell_simulate_it_once(
        self, tmp_path, monkeypatch
    ):
        # Each job engine claims its cells in the scheduler's in-flight
        # table before offering them to the fleet; a member waiting on
        # such a claim would deadlock with the job that offered it.
        from repro.core.simulator import Simulator

        simulated = []
        real_run = Simulator.run

        def counting_run(self, trace, protocol, *args, **kwargs):
            simulated.append(type(protocol).__name__)
            return real_run(self, trace, protocol, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting_run)
        scheduler = Scheduler(
            workers=2, fabric_db=tmp_path / "fabric.db", fabric_workers=2
        )
        scheduler.start()
        try:
            first, _ = scheduler.submit(
                parse_job_spec(dict(SPEC, schemes=["dir0b", "wti"]))
            )
            second, _ = scheduler.submit(
                parse_job_spec(dict(SPEC, schemes=["dir0b", "dragon"]))
            )
            wait_terminal(first, timeout=60.0)
            wait_terminal(second, timeout=60.0)
            assert (first.state, second.state) == ("done", "done")
            assert first.results["dir0b"] == second.results["dir0b"]
            # dir0b, wti and dragon: the shared cell simulated once.
            assert len(simulated) == 3
        finally:
            scheduler.shutdown(mode="checkpoint")  # bounded, even if deadlocked

    def test_dlq_route_without_fabric_reports_disabled(self):
        scheduler = Scheduler(workers=1)
        server = ServiceServer(scheduler, port=0)
        server.start()
        try:
            dlq = get_json(server.url + "/dlq")
            assert dlq == {"enabled": False, "dead": []}
            assert get_json(server.url + "/stats")["fabric"] is None
        finally:
            server.stop()


class TestSpecMaxAttempts:
    def test_unset_max_attempts_keeps_historic_hashes(self):
        spec = parse_job_spec(dict(SPEC))
        assert "max_attempts" not in spec.canonical()
        assert spec.spec_hash() == parse_job_spec(dict(SPEC)).spec_hash()

    def test_set_max_attempts_round_trips_and_changes_identity(self):
        spec = parse_job_spec({**SPEC, "max_attempts": 5})
        assert spec.max_attempts == 5
        assert spec.canonical()["max_attempts"] == 5
        assert spec.spec_hash() != parse_job_spec(dict(SPEC)).spec_hash()

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "3"])
    def test_invalid_max_attempts_rejected(self, bad):
        with pytest.raises(JobSpecError):
            parse_job_spec({**SPEC, "max_attempts": bad})


class TestPopAfterClose:
    def test_pop_on_a_closed_empty_queue_returns_immediately(self):
        store = JobStore()
        store.stop()
        start = time.monotonic()
        assert store.pop(timeout=5.0) is None
        assert time.monotonic() - start < 1.0
        store.close()

    def test_pop_still_drains_jobs_queued_before_close(self):
        store = JobStore()
        job = Job(parse_job_spec(dict(SPEC)))
        store.submit(job)
        store.stop()
        assert store.pop(timeout=5.0) is job
        assert store.pop(timeout=5.0) is None
        store.close()
