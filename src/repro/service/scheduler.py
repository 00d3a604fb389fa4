"""The scheduler: worker threads that turn queued jobs into results.

Each worker thread pops one job at a time from the
:class:`~repro.service.queue.JobQueue` and runs it as one
:class:`~repro.engine.plan.ExecutionPlan` (the job's schemes × its
trace specs) through a single ``Engine(...).run(plan)`` call, like
every other sweep in the repo.  The engine restores cells from the
job's checkpoint manifest, serves them from the shared
:class:`~repro.runner.cache.ResultCache`, waits for cells another job is
computing, and dispatches the rest to the job's backend: inline or a
process pool (``sim_jobs``), or the fabric fleet.  Every resolved cell
reaches one observer, which appends the job's NDJSON event and feeds
the ``/stats`` counters.

Between jobs the scheduler keeps only the ``ResultCache``; its
fingerprint memo maps trace specs to (trace name, fingerprint), all a
cell's cache key needs.  A trace is built only when its spec is new or
one of its cells must simulate in this process, and nothing holds it
once its job ends.  Nor is the job itself held: once a job is terminal
its record goes to disk (see :class:`~repro.service.jobs.JobStore`) and
the ``Job`` is dropped, so memory follows the running jobs, not the
server's history.  In fabric mode each accepted job is mirrored into
the fabric db, marked terminal there when it finishes, and recovered
from it at startup in the same pass that reads ``state_dir``.

Graceful shutdown has two modes.  ``drain`` finishes every queued and
running job, then stops.  ``checkpoint`` stops running jobs at the next
cell boundary (the job's observer raises from ``cell_started``),
persists their partial manifests and the queued jobs' specs under
``state_dir``, and a scheduler restarted on the same ``state_dir``
resumes them: completed cells restored bit-for-bit from the manifest,
the remainder recomputed deterministically.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

from repro.core.simulator import Simulator
from repro.engine import (
    Engine,
    EngineMetrics,
    EngineObserver,
    ExecutionPlan,
    InlineBackend,
    ObserverGroup,
    RetryPolicy,
)
from repro.errors import ServiceUnavailableError
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import CheckpointManager
from repro.service.jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING, Job
from repro.service.jobs import TERMINAL_STATES, JobStopped, JobStore
from repro.service.queue import JobQueue
from repro.service.spec import JobSpec, parse_job_spec

JOB_FILE = "job.json"


class _JobPlan(ExecutionPlan):
    """One job's sweep; its checkpoint is identified by the spec hash."""

    def __init__(self, spec: JobSpec) -> None:
        super().__init__(
            traces=list(spec.traces),
            schemes=spec.scheme_specs(),
            simulator=Simulator(sharer_key=spec.sharer_key),
        )
        self.spec_hash = spec.spec_hash()

    def fingerprint(self) -> dict[str, Any]:
        return {"job_spec": self.spec_hash}


class _JobEvents(EngineObserver):
    """Turns one job's engine events into its event log; stops it on request."""

    def __init__(self, job: Job) -> None:
        self.job = job

    def cell_started(self, task: Any) -> None:
        self.job.check_stop()

    def cell_finished(self, task: Any, outcome: Any) -> None:
        self.job.record_cell(
            scheme=task.scheme_key,
            trace_name=task.trace_name,
            index=task.index,
            source=outcome.source,
            payload=outcome.to_payload(),
        )


class Scheduler:
    """Owns the queue, the workers, and the shared result cache.

    Args:
        workers: concurrent jobs (one worker thread each).
        sim_jobs: worker processes per job (1 = inline, in-thread).
        result_cache: shared content-addressed cache.  Defaults to
            ``state_dir/cache`` when a state dir is given, else to a
            private temporary directory removed at shutdown.
        state_dir: persistence root; enables checkpoint shutdown/resume.
        retry: per-cell transient-failure policy (engine semantics).
        fabric_db: path to a durable fabric database.  When set, jobs
            are mirrored into it (surviving a service crash even with no
            ``state_dir``) and the cells each job must compute run on
            the lease-based worker fleet instead of in-process —
            in-process fabric workers started here plus any external
            ``repro work --db`` processes.
        fabric_workers: in-process fleet members to start (fabric mode).
            0 relies entirely on external worker processes.
        lease_s: lease duration for the in-process fleet's cells.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        sim_jobs: int = 1,
        result_cache: ResultCache | None = None,
        state_dir: str | Path | None = None,
        retry: RetryPolicy | None = None,
        fabric_db: str | Path | None = None,
        fabric_workers: int = 1,
        lease_s: float = 30.0,
    ) -> None:
        self.workers = max(1, workers)
        self.sim_jobs = max(1, sim_jobs)
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._private_cache: tempfile.TemporaryDirectory | None = None
        if result_cache is None:
            if self.state_dir is not None:
                result_cache = ResultCache(self.state_dir / "cache")
            else:
                self._private_cache = tempfile.TemporaryDirectory(
                    prefix="repro-service-cache-", ignore_cleanup_errors=True
                )
                result_cache = ResultCache(self._private_cache.name)
        self.result_cache = result_cache
        self.retry = retry or RetryPolicy()

        # Fabric imports are deferred, so a service without a fabric db
        # never loads sqlite3 or the fleet.
        self.fabric: Any = None
        self.fabric_workers = max(0, fabric_workers)
        self.lease_s = lease_s
        self._fabric_threads: list[threading.Thread] = []
        if fabric_db is not None:
            from repro.fabric.queue import DurableCellQueue

            self.fabric = DurableCellQueue(fabric_db)
        self.queue = JobQueue()
        self.jobs = JobStore(
            self.state_dir / "jobs" if self.state_dir is not None else None,
            restore=self._restore_terminal,
        )

        self._threads: list[threading.Thread] = []
        self._quit = threading.Event()
        self._checkpoint_mode = False
        #: jobs submitted but not yet terminal/parked (drain waits on 0).
        self._outstanding = 0
        self._idle = threading.Condition()
        self._started_at = time.monotonic()

        #: Engine instrumentation for every job's cells, plus the job
        #: submission counters.
        self.metrics = EngineMetrics()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Recover persisted jobs, then launch the worker threads."""
        self._recover()
        if self.fabric is not None:
            self._start_fleet()
        for number in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-service-worker-{number}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _start_fleet(self) -> None:
        """Launch the in-process fabric fleet; each member reaps as it polls."""
        from dataclasses import replace as dc_replace

        from repro.fabric.worker import FabricWorker

        for number in range(self.fabric_workers):
            member = FabricWorker(
                self.fabric,
                worker_id=f"svc-{os.getpid()}-{number}",
                result_cache=self.result_cache,
                retry=dc_replace(self.retry, jitter="full", jitter_seed=None),
                lease_s=self.lease_s,
                poll_s=0.2,
                drain=False,  # long-lived: poll until shutdown
                stop=self._quit,
            )
            thread = threading.Thread(
                target=member.run,
                name=f"repro-fabric-member-{number}",
                daemon=True,
            )
            thread.start()
            self._fabric_threads.append(thread)

    def shutdown(self, mode: str = "drain", timeout: float | None = None) -> None:
        """Stop the scheduler.

        Args:
            mode: ``"drain"`` finishes all queued and running jobs
                first; ``"checkpoint"`` stops running jobs at the next
                cell boundary and persists queue + partial manifests
                (requires ``state_dir`` for the persistence part — the
                stop-at-boundary behaviour works regardless).
            timeout: drain-mode bound on waiting for jobs to finish.
        """
        if mode not in ("drain", "checkpoint"):
            raise ValueError(f"shutdown mode must be drain/checkpoint, got {mode!r}")
        self.queue.close()
        if mode == "checkpoint":
            self._checkpoint_mode = True
            for job in self.jobs.all():
                if not job.finished:
                    job.request_stop()
        else:
            with self._idle:
                self._idle.wait_for(lambda: not self._outstanding, timeout)
        self._quit.set()
        for job in self.queue.drain():
            # Still queued at quit: stays persisted for the next start.
            self._persist_job(job)
        for thread in self._threads:
            thread.join(timeout=10.0)
        for thread in self._fabric_threads:
            thread.join(timeout=10.0)
        if self.fabric is not None:
            try:
                self.fabric.close()
            except Exception:
                pass  # this thread's connection only; workers own theirs
        if self._private_cache is not None:
            self._private_cache.cleanup()
        self.jobs.close()

    @property
    def stopping(self) -> bool:
        return self.queue.closed

    @property
    def uptime_s(self) -> float:
        return round(time.monotonic() - self._started_at, 3)

    # ------------------------------------------------------------------
    # Submission + views
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec, job_id: str | None = None) -> tuple[Job, bool]:
        """Queue a validated spec; returns ``(job, deduplicated)``."""
        if self._quit.is_set():
            raise ServiceUnavailableError("service is shutting down")
        job = Job(spec, job_id=job_id)
        accepted, deduplicated = self.queue.submit(job)
        self.metrics.bump("jobs_submitted")
        if deduplicated:
            self.metrics.bump("jobs_deduplicated")
        else:
            if self.fabric is not None:
                # Job row only: the FleetBackend adds the cells it runs.
                self.fabric.submit(accepted.spec, accepted.id, expand=False)
            self.jobs.add(accepted)
            with self._idle:
                self._outstanding += 1
            self._persist_job(accepted)
        return accepted, deduplicated

    def stats(self) -> dict[str, Any]:
        """The ``GET /stats`` payload: queue, job, cell, cache metrics.

        Cell counters come from the engine instrumentation, which counts
        each resolved cell by its outcome's source; ``errors`` counts
        failed cells of any source.  The raw counter snapshot is exposed
        under ``engine``.
        """
        counters = self.metrics.snapshot()
        return {
            "uptime_s": self.uptime_s,
            "workers": self.workers,
            "sim_jobs": self.sim_jobs,
            "queue_depth": len(self.queue),
            "inflight_cells": len(self.result_cache.inflight),
            "stopping": self.stopping,
            "jobs": {
                **self.jobs.state_counts(),
                "total": len(self.jobs),
                "submitted": int(counters.get("jobs_submitted", 0)),
                "deduplicated": int(counters.get("jobs_deduplicated", 0)),
            },
            "cells": {
                "simulated": int(counters.get("cells_ok", 0)),
                "cache": int(counters.get("cells_cache", 0)),
                "coalesced": int(counters.get("cells_coalesced", 0)),
                "checkpoint": int(counters.get("cells_checkpoint", 0)),
                "fabric": int(counters.get("cells_fabric", 0)),
                "errors": int(counters.get("cells_failed", 0)),
            },
            "engine": counters,
            "cache": {
                "hits": self.result_cache.hits,
                "misses": self.result_cache.misses,
                "quarantined": self.result_cache.quarantined,
                "entries": len(self.result_cache),
            },
            "fabric": self.fabric.stats() if self.fabric is not None else None,
        }

    # ------------------------------------------------------------------
    # Persistence + recovery
    # ------------------------------------------------------------------

    def _job_dir(self, job_id: str) -> Path | None:
        if self.state_dir is None:
            return None
        return self.state_dir / "jobs" / job_id

    def _persist_job(self, job: Job) -> None:
        """Write the job's spec + state to its directory (atomic)."""
        directory = self._job_dir(job.id)
        if directory is None:
            return
        directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "id": job.id,
                "state": job.state,
                "error": job.error,
                "spec": job.spec.canonical(),
            },
            indent=1,
            sort_keys=True,
        )
        path = directory / JOB_FILE
        # Unique per writer: the submitting thread and a worker thread
        # can persist the same job concurrently (queued vs running),
        # and a shared tmp name would let one replace() lose the file.
        tmp = path.with_name(f"{path.name}.{threading.get_ident()}.tmp")
        tmp.write_text(payload, "utf-8")
        os.replace(tmp, path)

    def _recover(self) -> None:
        """Count persisted finished jobs; unfinished ones go back on the queue.

        The ``state_dir`` job files come first: they name the finished
        jobs, which stay on disk until looked up.  The fabric db then
        adds the unfinished jobs it outlived, e.g. ones submitted to a
        service with no ``state_dir`` and orphaned by a crash.
        """
        records: list[dict[str, Any]] = []
        jobs_root = self.state_dir / "jobs" if self.state_dir is not None else None
        if jobs_root is not None and jobs_root.is_dir():
            for directory in sorted(jobs_root.iterdir()):
                try:
                    persisted = json.loads((directory / JOB_FILE).read_text("utf-8"))
                except Exception:
                    continue  # a corrupt job record never blocks startup
                persisted["id"] = persisted.get("id") or directory.name
                records.append(persisted)
        if self.fabric is not None:
            records += self.fabric.pending_jobs()
        # Jobs submitted before start() are persisted and already queued.
        recovered = {job.id for job in self.jobs.all()}
        for persisted in records:
            if persisted["id"] in recovered:
                continue  # the state_dir record already restored this job
            if persisted.get("state") in TERMINAL_STATES:
                recovered.add(persisted["id"])
                self.jobs.count_finished(persisted["state"])
                continue
            try:
                spec = parse_job_spec(persisted["spec"])
            except Exception:
                continue  # nor does a corrupt spec, from either source
            recovered.add(persisted["id"])
            job = Job(spec, job_id=persisted["id"])
            self.jobs.add(job)
            _, deduplicated = self.queue.submit(job)
            if deduplicated:
                # Two persisted copies of one dedup'd spec: keep one.
                job.set_state(CANCELLED, error="deduplicated on recovery")
                self._persist_job(job)
                self.jobs.retire(job)
            else:
                with self._idle:
                    self._outstanding += 1

    def _restore_terminal(self, job_id: str) -> Job | None:
        """A finished job an older server persisted with no record file,
        its results rebuilt from its manifest."""
        directory = self._job_dir(job_id)
        if directory is None:
            return None
        try:
            persisted = json.loads((directory / JOB_FILE).read_text("utf-8"))
            if persisted.get("state") not in TERMINAL_STATES:
                return None
            job = Job(parse_job_spec(persisted["spec"]), job_id=job_id)
        except Exception:
            return None
        try:
            manifest = CheckpointManager(directory).load_manifest()
        except Exception:
            manifest = {"completed": {}}
        for scheme, per_trace in manifest.get("completed", {}).items():
            for trace_name, result_json in per_trace.items():
                job.record_cell(
                    scheme=scheme,
                    trace_name=trace_name,
                    index=-1,
                    source="checkpoint",
                    payload={"status": "ok", "result": result_json, "attempts": 1},
                )
        job.set_state(persisted["state"], error=persisted.get("error"))
        return job

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._quit.is_set():
            job = self.queue.pop(timeout=0.2)
            if job is None:
                continue
            try:
                # Popped during a checkpoint shutdown: left queued.
                if not self._checkpoint_mode:
                    self._run_job(job)
            finally:
                self._settle(job)
                # One submitted job is terminal or parked: unblock drainers.
                with self._idle:
                    self._outstanding -= 1
                    self._idle.notify_all()

    def _run_job(self, job: Job) -> None:
        job_dir = self._job_dir(job.id)
        try:
            # Inside the containment: a job that cannot even start fails
            # like any other, and the worker thread lives on.
            job.set_state(RUNNING)
            self._persist_job(job)
            if self.fabric is not None:
                from repro.fabric.queue import FleetBackend

                backend = FleetBackend(self.fabric, job)
            elif self.sim_jobs == 1:
                backend = InlineBackend(self.retry)
            else:
                backend = None  # a process pool of ``sim_jobs`` workers
            engine = Engine(
                retry=self.retry,
                checkpoint=CheckpointManager(job_dir) if job_dir is not None else None,
                resume=job_dir is not None,
                jobs=self.sim_jobs,
                result_cache=self.result_cache,
                # First, so a stop raised at cell_started counts no cell.
                observer=ObserverGroup([_JobEvents(job), self.metrics]),
                backend=backend,
            )
            engine.run(_JobPlan(job.spec))
        except JobStopped:
            # Stopped at a cell boundary: back to queued, resumable.
            job.state = QUEUED
            job.append_event(
                {"type": "job", "job": job.id, "state": QUEUED,
                 "reason": "checkpointed"}
            )
        except Exception as exc:  # infrastructure failure, not a cell failure
            job.set_state(FAILED, error=f"{type(exc).__name__}: {exc}")
        else:
            job.set_state(DONE)

    def _settle(self, job: Job) -> None:
        """Persist a finished or parked job, and retire a finished one.

        A failure here (a full disk, a read-only state directory) is
        recorded on the job and goes no further: the job stays in the
        store, terminal (or queued) and answerable, and the worker
        thread lives on.
        """
        try:
            if job.finished:
                self.queue.job_finished(job)
                if self.fabric is not None:
                    # Settled cells already flip the fabric job terminal;
                    # this covers jobs that sent no cell to the fleet.
                    try:
                        self.fabric.finish_job(job.id, job.state)
                    except Exception:
                        pass  # accounting only; never fail the settle path
            self._persist_job(job)
            if job.finished:
                self.jobs.retire(job)
        except Exception as exc:
            job.record_error(f"{type(exc).__name__}: {exc}")
