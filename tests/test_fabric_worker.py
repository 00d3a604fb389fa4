"""Fleet workers in-process: digest parity, cache dedup, jittered retry.

The chaos harness (``test_fabric_chaos.py``) covers real worker
*processes* and SIGKILL; here the same :class:`FabricWorker` loop runs
as threads, where the interesting properties are cheap to assert:
results bit-identical to a serial engine run, the shared result cache
eliminating every repeat simulation, and the full-jitter backoff being
deterministic under a fixed seed.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

import pytest

from repro.engine.policies import RetryPolicy, run_with_retry
from repro.errors import ConfigurationError, TransientError
from repro.fabric.chaos import canonical_digest, serial_results
from repro.fabric.queue import DurableCellQueue
from repro.fabric.worker import FabricWorker
from repro.runner.cache import ResultCache
from repro.service.spec import TraceSpec, parse_job_spec

SPEC = {
    "schemes": ["dir0b", "wti", "dragon"],
    "traces": [
        {"workload": "pops", "length": 800, "seed": 2},
        {"workload": "thor", "length": 800, "seed": 2},
    ],
}


def run_fleet(path, cache, n_workers=2, spec_payload=SPEC, job_id="job-1"):
    spec = parse_job_spec(dict(spec_payload))
    queue = DurableCellQueue(path)
    queue.submit(spec, job_id)
    workers = [
        FabricWorker(
            DurableCellQueue(path),
            worker_id=f"w{number}",
            result_cache=cache,
            lease_s=30.0,
            poll_s=0.02,
        )
        for number in range(n_workers)
    ]
    threads = [threading.Thread(target=worker.run) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    return spec, queue, workers


class TestFleetParity:
    def test_fleet_matches_serial_engine_bit_for_bit(self, tmp_path):
        spec, queue, workers = run_fleet(
            tmp_path / "fabric.db", ResultCache(tmp_path / "cache")
        )
        assert queue.job_state("job-1") == "done"
        assembled = queue.assemble("job-1")
        assert assembled["failures"] == []
        assert canonical_digest(assembled["results"]) == canonical_digest(
            serial_results(spec)
        )
        # Both workers got work and nothing was simulated twice.
        stats = queue.stats()
        assert stats["duplicate_completions"] == 0
        assert sum(w.settled["simulated"] for w in workers) == spec.cell_count()

    def test_second_job_runs_entirely_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec, queue, _ = run_fleet(tmp_path / "fabric.db", cache)
        first = queue.assemble("job-1")

        # Same sweep, different job id, fresh db: the fleet-wide dedup
        # layer (the content-addressed cache) serves every cell.
        _, queue2, workers2 = run_fleet(
            tmp_path / "fabric2.db", cache, n_workers=1, job_id="job-2"
        )
        assert queue2.job_state("job-2") == "done"
        assert workers2[0].settled == {
            "simulated": 0, "cache": spec.cell_count(), "error": 0,
        }
        assert queue2.stats()["dedup_hits"] == spec.cell_count()
        assert canonical_digest(queue2.assemble("job-2")["results"]) == (
            canonical_digest(first["results"])
        )

    def test_own_reap_pass_recovers_an_abandoned_lease(self, tmp_path):
        spec = parse_job_spec(
            {
                "schemes": ["dir0b"],
                "traces": [{"workload": "pops", "length": 400, "seed": 1}],
            }
        )
        queue = DurableCellQueue(tmp_path / "fabric.db")
        queue.submit(spec, "job-1")
        # A "crashed" worker takes the only cell and never settles it.
        assert queue.lease("crashed", lease_s=0.05) is not None
        time.sleep(0.2)

        # No reaper runs anywhere: the worker's own pass must requeue it.
        # (In a thread, so a worker that never reaps fails instead of
        # polling the stuck lease forever.)
        worker = FabricWorker(queue, drain=True, poll_s=0.02)
        thread = threading.Thread(target=worker.run)
        thread.start()
        thread.join(timeout=60.0)
        worker.stop()
        assert not thread.is_alive()
        assert worker.settled["simulated"] == 1
        assert queue.job_state("job-1") == "done"
        assert queue.stats()["reassignments"] == 1
        assembled = queue.assemble("job-1")
        assert assembled["failures"] == []
        assert canonical_digest(assembled["results"]) == canonical_digest(
            serial_results(spec)
        )

    def test_unbuildable_trace_settles_contained_failure(self, tmp_path):
        spec, queue, _ = run_fleet(
            tmp_path / "fabric.db",
            None,
            n_workers=1,
            spec_payload={
                "schemes": ["dir0b"],
                "traces": [
                    {"workload": "pops", "length": 400, "seed": 1},
                    {"path": str(tmp_path / "does-not-exist.trace")},
                ],
            },
        )
        assert queue.job_state("job-1") == "failed"
        assembled = queue.assemble("job-1")
        assert len(assembled["failures"]) == 1
        assert list(assembled["results"]["dir0b"]) == ["pops"]
        # A permanent failure settles once; it never crash-loops.
        assert queue.stats()["dead_letters"] == 0


class TestTraceLifetime:
    @pytest.fixture
    def built(self, monkeypatch):
        """Weak references to every trace ``TraceSpec.build`` returns."""
        refs: list[weakref.ref] = []
        real_build = TraceSpec.build

        def spy(self):
            trace = real_build(self)
            refs.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(TraceSpec, "build", spy)
        return refs

    def test_worker_builds_each_trace_once_per_job(self, tmp_path, built):
        spec, queue, workers = run_fleet(tmp_path / "fabric.db", None, n_workers=1)
        assert queue.job_state("job-1") == "done"
        assert workers[0].settled["simulated"] == spec.cell_count()
        # Three schemes share each of the two traces.
        assert len(built) == len(spec.traces)

    def test_no_trace_outlives_the_job(self, tmp_path, built):
        _, queue, workers = run_fleet(tmp_path / "fabric.db", None, n_workers=1)
        assert queue.job_state("job-1") == "done"
        gc.collect()
        # The worker is still alive, but it holds none of the job's traces.
        assert workers[0].leases > 0
        assert built and all(ref() is None for ref in built)

    def test_malformed_trace_spec_settles_as_error(self, tmp_path):
        spec = parse_job_spec(dict(SPEC))
        queue = DurableCellQueue(tmp_path / "fabric.db")
        queue.submit(spec, "job-1", expand=False)
        queue.add_cells(
            "job-1",
            [
                {
                    "idx": 0,
                    "scheme": {"name": "dir0b", "options": {}},
                    "scheme_key": "dir0b",
                    "trace_spec": {"workload": "pops", "bogus": 1},
                    "trace_label": "pops",
                    "sharer_key": spec.sharer_key,
                }
            ],
        )
        worker = FabricWorker(queue, worker_id="w0", poll_s=0.02)
        assert worker.run() == 1
        assert worker.settled["error"] == 1
        assert queue.unfinished_cells() == 0


class TestFingerprints:
    @pytest.fixture
    def hashed(self, monkeypatch):
        """Every trace the result cache's memo fingerprints."""
        import repro.runner.cache as cache_module

        traces: list[str] = []
        real = cache_module.trace_fingerprint

        def spy(trace):
            traces.append(trace.name)
            return real(trace)

        monkeypatch.setattr(cache_module, "trace_fingerprint", spy)
        return traces

    def test_fleet_without_a_cache_never_fingerprints(self, tmp_path, hashed):
        spec, queue, workers = run_fleet(tmp_path / "fabric.db", None, n_workers=1)
        assert queue.job_state("job-1") == "done"
        assert workers[0].settled["simulated"] == spec.cell_count()
        assert hashed == []

    def test_member_reuses_the_fingerprints_its_cache_holds(self, tmp_path, hashed):
        # As in the service's fleet mode: the scheduler's engine has
        # already fingerprinted the job's specs in the shared cache.
        cache = ResultCache(tmp_path / "cache")
        for tspec in parse_job_spec(dict(SPEC)).traces:
            cache.fingerprints.lookup(tspec)
        assert len(hashed) == len(SPEC["traces"])
        hashed.clear()

        spec, queue, workers = run_fleet(tmp_path / "fabric.db", cache, n_workers=1)
        assert queue.job_state("job-1") == "done"
        assert workers[0].settled["simulated"] == spec.cell_count()
        assert hashed == []


class TestFullJitter:
    def test_fixed_seed_reproduces_the_schedule(self):
        first = RetryPolicy(jitter="full", jitter_seed=7)
        second = RetryPolicy(jitter="full", jitter_seed=7)
        assert [first.delay(n) for n in (1, 2, 3)] == [
            second.delay(n) for n in (1, 2, 3)
        ]
        different = RetryPolicy(jitter="full", jitter_seed=8)
        assert [first.delay(n) for n in (1, 2, 3)] != [
            different.delay(n) for n in (1, 2, 3)
        ]

    def test_jitter_stays_within_the_capped_envelope(self):
        policy = RetryPolicy(
            jitter="full", jitter_seed=3, backoff_base=0.1, backoff_max=0.5
        )
        plain = RetryPolicy(backoff_base=0.1, backoff_max=0.5)
        for attempt in range(1, 8):
            assert 0.0 <= policy.delay(attempt) <= plain.delay(attempt)

    def test_jitter_mode_is_validated(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter="half")

    def test_observer_sees_the_slept_delay(self):
        slept: list[float] = []
        reported: list[float] = []

        class Observer:
            def cell_retry(self, task, failed_attempts, error, delay):
                reported.append(delay)

        policy = RetryPolicy(
            max_attempts=3, jitter="full", jitter_seed=11, sleep=slept.append
        )
        calls = {"n": 0}

        def attempt():
            calls["n"] += 1
            raise TransientError("flaky")

        _, exc, attempts = run_with_retry(attempt, policy, observer=Observer())
        assert isinstance(exc, TransientError) and attempts == 3
        # The exact jittered values that were slept were also reported.
        assert slept == reported and len(slept) == 2

    def test_worker_seeds_jitter_from_its_id(self, tmp_path):
        worker = FabricWorker(
            DurableCellQueue(tmp_path / "fabric.db"), worker_id="w0"
        )
        twin = FabricWorker(
            DurableCellQueue(tmp_path / "fabric.db"), worker_id="w0"
        )
        other = FabricWorker(
            DurableCellQueue(tmp_path / "fabric.db"), worker_id="w1"
        )
        assert worker.retry.jitter == "full"
        assert worker.retry.jitter_seed == twin.retry.jitter_seed
        assert worker.retry.jitter_seed != other.retry.jitter_seed
