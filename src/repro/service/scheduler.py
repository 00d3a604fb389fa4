"""The scheduler: worker threads that turn queued jobs into results.

Each worker thread pops one job at a time from the
:class:`~repro.service.jobs.JobStore` and runs it as one
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
once its job ends.  Nor is a finished job: the ``JobStore``, which
queues, deduplicates and files every job, writes its record and drops
it.  In fabric mode each accepted job is mirrored into the fabric db,
marked terminal there when it finishes, and recovered from it at
startup in the same pass that reads ``state_dir``.

Graceful shutdown has two modes.  ``drain`` finishes every queued and
running job, then stops.  ``checkpoint`` stops running jobs at the next
cell boundary (the job's observer raises from ``cell_started``),
persists their partial manifests and the queued jobs' specs under
``state_dir``, and a scheduler restarted on the same ``state_dir``
resumes them: completed cells restored bit-for-bit from the manifest,
the remainder recomputed deterministically.
"""

from __future__ import annotations

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
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import CheckpointManager
from repro.service.jobs import DONE, FAILED, QUEUED, Job, JobStopped, JobStore
from repro.service.spec import JobSpec


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
    """Owns the job store, the workers, and the shared result cache.

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
        self.jobs = JobStore(
            self.state_dir / "jobs" if self.state_dir is not None else None,
            # The fabric job row is written before the job can run, so a
            # job that finishes at once still finds it to mark terminal.
            # Job row only: the FleetBackend adds the cells it runs.
            mirror=(
                (lambda job: self.fabric.submit(job.spec, job.id, expand=False))
                if self.fabric is not None
                else None
            ),
        )

        self._threads: list[threading.Thread] = []
        self._quit = threading.Event()
        self._checkpoint_mode = False
        self._started_at = time.monotonic()

        #: Engine instrumentation for every job's cells, plus the job
        #: submission counters.
        self.metrics = EngineMetrics()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Recover persisted jobs, then launch the worker threads."""
        self.jobs.recover(self.fabric.pending_jobs() if self.fabric is not None else ())
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
        self.jobs.stop()
        if mode == "checkpoint":
            self._checkpoint_mode = True
            for job in self.jobs.all():
                if not job.finished:
                    job.request_stop()
        else:
            self.jobs.wait_idle(timeout)
        self._quit.set()
        self.jobs.drain()  # still queued at quit: filed for the next start
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
    def uptime_s(self) -> float:
        return round(time.monotonic() - self._started_at, 3)

    # ------------------------------------------------------------------
    # Submission + views
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec, job_id: str | None = None) -> tuple[Job, bool]:
        """Queue a validated spec; returns ``(job, deduplicated)``."""
        accepted, deduplicated = self.jobs.submit(Job(spec, job_id=job_id))
        self.metrics.bump("jobs_submitted")
        if deduplicated:
            self.metrics.bump("jobs_deduplicated")
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
            "queue_depth": self.jobs.queue_depth(),
            "inflight_cells": len(self.result_cache.inflight),
            "stopping": self.jobs.stopping,
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
    # Worker loop
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._quit.is_set():
            job = self.jobs.pop(timeout=0.2)
            if job is None:
                if self.jobs.stopping:
                    return  # stopped and empty: no job can come
                continue
            try:
                # Popped during a checkpoint shutdown: left queued.
                if not self._checkpoint_mode:
                    self._run_job(job)
            finally:
                self._settle(job)

    def _run_job(self, job: Job) -> None:
        job_dir = self.jobs.directory(job.id)
        try:
            # Inside the containment: a job that cannot even start fails
            # like any other, and the worker thread lives on.
            self.jobs.start(job)
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
        """File a finished or parked job, and retire a finished one.

        A failure (a full disk, a read-only state directory) is noted on
        the job, which stays in the store and answerable; the worker
        thread lives on.
        """
        if job.finished and self.fabric is not None:
            # Settled cells already flip the fabric job terminal; this
            # covers jobs that sent no cell to the fleet.
            try:
                self.fabric.finish_job(job.id, job.state)
            except Exception:
                pass  # accounting only; never fail the settle path
        try:
            self.jobs.settle(job)
        except Exception as exc:
            job.record_error(f"{type(exc).__name__}: {exc}")
