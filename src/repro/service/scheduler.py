"""The scheduler: worker threads that turn queued jobs into results.

Each worker thread pops one job at a time from the
:class:`~repro.service.queue.JobQueue` and drives it through three
phases:

1. **Resolution** — every cell in sweep order is classified: already in
   this job's checkpoint manifest (``checkpoint``), present in the
   shared :class:`~repro.runner.cache.ResultCache` (``cache``), being
   computed right now by any job (``coalesced`` — the cell attaches to
   the in-flight entry), or owned by this job (``simulated``).
2. **Owned execution** — owned cells run in stop-checked batches through
   the engine: serially via :func:`repro.engine.backends.run_cell` or
   fanned across a :class:`~repro.engine.backends.ProcessPoolBackend`
   process pool when ``sim_jobs > 1`` — or by the fabric fleet in
   fabric mode.  Outcomes are cached *before* the in-flight entry
   resolves, so late claimants always find the cache.
3. **Waiting** — coalesced cells block on their in-flight entries; an
   abandoned entry (its owner was stopped mid-shutdown) sends the
   waiter back through resolution so no cell is ever stranded.

Between jobs the scheduler keeps only the ``ResultCache`` and a
:class:`~repro.service.spec.FingerprintMemo` from trace spec to (trace
name, content fingerprint) — all a cell's cache key needs.  A trace is
built only when its spec is new or one of its cells must simulate
in-process, and nothing holds it once its job ends.  Cell metrics come
from the engine's :class:`~repro.engine.observer.EngineMetrics`
observer — the same instrumentation the CLI's ``--progress`` reads —
and per-job checkpoint manifests are written through the engine's
single :class:`~repro.engine.policies.ManifestRecorder` site.

In fabric mode the scheduler keeps the same :class:`JobQueue` and
mirrors each accepted job's row into the fabric db, marks it terminal
when the job finishes, and at startup recovers the db's unfinished jobs
in the same pass that reads ``state_dir``.  Expired leases are reaped
by every fleet member's poll loop and by the wait loop of a job whose
cells are on the fleet; no thread exists only to reap.

Graceful shutdown has two modes.  ``drain`` finishes every queued and
running job, then stops.  ``checkpoint`` stops running jobs at the next
cell boundary, persists their partial manifests and the queued jobs'
specs under ``state_dir``, and a scheduler restarted on the same
``state_dir`` resumes them — completed cells restored bit-for-bit from
the manifest, the remainder recomputed deterministically.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.simulator import Simulator
from repro.engine.backends import ProcessPoolBackend, run_cell
from repro.engine.observer import EngineMetrics
from repro.engine.plan import CellTask
from repro.engine.policies import ManifestRecorder, RetryPolicy
from repro.errors import ServiceUnavailableError
from repro.runner.cache import ResultCache, cache_key
from repro.runner.checkpoint import CheckpointManager
from repro.service.coalesce import InFlightCell, InFlightTable
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SOURCE_CACHE,
    SOURCE_CHECKPOINT,
    SOURCE_COALESCED,
    SOURCE_FABRIC,
    SOURCE_SIMULATED,
    Job,
    JobStore,
)
from repro.service.queue import JobQueue
from repro.service.spec import FingerprintMemo, JobSpec

#: How long waiters sleep between stop-flag checks on an in-flight cell.
_WAIT_POLL = 0.1

JOB_FILE = "job.json"


class Scheduler:
    """Owns the queue, the workers, and every shared dedup structure.

    Args:
        workers: concurrent jobs (one worker thread each).
        sim_jobs: processes per job's owned-cell batches (1 = in-thread).
        result_cache: shared content-addressed cache.  Defaults to
            ``state_dir/cache`` when a state dir is given, else to a
            private temporary directory removed at shutdown.
        state_dir: persistence root; enables checkpoint shutdown/resume.
        retry: per-cell transient-failure policy (engine semantics).
        fabric_db: path to a durable fabric database.  When set, jobs
            are mirrored into it (surviving a service crash even with no
            ``state_dir``) and each job's *owned* cells are executed by
            the lease-based worker fleet instead of the in-process
            engine backends — in-process fabric workers started here
            plus any external ``repro work --db`` processes.
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
        self.fingerprints = FingerprintMemo()
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
        self.jobs = JobStore()
        self.inflight = InFlightTable()

        self._threads: list[threading.Thread] = []
        self._quit = threading.Event()
        self._checkpoint_mode = False
        #: jobs submitted but not yet terminal/parked (drain waits on 0).
        self._outstanding = 0
        self._idle = threading.Condition()
        self._started_at = time.monotonic()

        #: Engine instrumentation: owned-cell outcomes arrive through
        #: the observer protocol; scheduler-only counters (cache,
        #: coalesced, checkpoint, job dedup) share the same store.
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
            deadline = None if timeout is None else time.monotonic() + timeout
            with self._idle:
                while self._outstanding:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                    self._idle.wait(remaining if remaining is not None else 0.5)
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

    @property
    def stopping(self) -> bool:
        return self.queue.closed

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
                # Job row only: owned cells are added at execution time.
                self.fabric.submit(accepted.spec, accepted.id, expand=False)
            self.jobs.add(accepted)
            with self._idle:
                self._outstanding += 1
            self._persist_job(accepted)
        return accepted, deduplicated

    def stats(self) -> dict[str, Any]:
        """The ``GET /stats`` payload: queue, job, cell, cache metrics.

        Cell counters are read from the shared engine instrumentation:
        ``simulated``/``errors`` are the engine's terminal-outcome
        counters (``cells_ok``/``cells_failed``); ``cache``,
        ``coalesced``, and ``checkpoint`` are scheduler resolutions that
        never reach the engine's compute path.  The raw counter
        snapshot is exposed under ``engine``.
        """
        counters = self.metrics.snapshot()
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "workers": self.workers,
            "sim_jobs": self.sim_jobs,
            "queue_depth": len(self.queue),
            "inflight_cells": len(self.inflight),
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
        """Re-create persisted jobs; unfinished ones go back on the queue.

        The ``state_dir`` job files come first: they are richer, since a
        finished job's results come back from its manifest.  The fabric
        db then adds the unfinished jobs it outlived, e.g. ones submitted
        to a service with no ``state_dir`` and orphaned by a crash.
        """
        from repro.service.jobs import TERMINAL_STATES
        from repro.service.spec import parse_job_spec

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
        recovered: set[str] = set()
        for persisted in records:
            if persisted["id"] in recovered:
                continue  # the state_dir record already restored this job
            try:
                spec = parse_job_spec(persisted["spec"])
            except Exception:
                continue  # nor does a corrupt spec, from either source
            recovered.add(persisted["id"])
            job = Job(spec, job_id=persisted["id"])
            self.jobs.add(job)
            if persisted.get("state") in TERMINAL_STATES:
                self._restore_terminal(job, persisted)
                continue
            _, deduplicated = self.queue.submit(job)
            if deduplicated:
                # Two persisted copies of one dedup'd spec: keep one.
                job.set_state(CANCELLED, error="deduplicated on recovery")
                self._persist_job(job)
            else:
                with self._idle:
                    self._outstanding += 1

    def _restore_terminal(self, job: Job, persisted: dict[str, Any]) -> None:
        """Rebuild a finished job's results from its manifest."""
        manager = CheckpointManager(self._job_dir(job.id))
        try:
            manifest = manager.load_manifest()
        except Exception:
            manifest = {"completed": {}}
        for scheme, per_trace in manifest.get("completed", {}).items():
            for trace_name, result_json in per_trace.items():
                job.record_cell(
                    scheme=scheme,
                    trace_name=trace_name,
                    index=-1,
                    source=SOURCE_CHECKPOINT,
                    payload={"status": "ok", "result": result_json, "attempts": 1},
                )
        job.set_state(persisted.get("state", DONE), error=persisted.get("error"))

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._quit.is_set():
            job = self.queue.pop(timeout=0.2)
            if job is None:
                continue
            if self._checkpoint_mode:
                # Popped during a checkpoint shutdown: leave it queued.
                self._persist_job(job)
                self._settle(job)
                continue
            try:
                self._run_job(job)
            finally:
                self._settle(job)

    def _settle(self, job: Job) -> None:
        """One submitted job reached terminal/parked; unblock drainers."""
        with self._idle:
            self._outstanding -= 1
            self._idle.notify_all()

    def _run_job(self, job: Job) -> None:
        job.set_state(RUNNING)
        self._persist_job(job)
        try:
            completed = self._execute_job(job)
        except Exception as exc:  # infrastructure failure, not a cell failure
            job.set_state(FAILED, error=f"{type(exc).__name__}: {exc}")
        else:
            if completed:
                job.set_state(DONE)
            else:
                # Stopped at a cell boundary: back to queued, resumable.
                job.state = QUEUED
                job.append_event(
                    {"type": "job", "job": job.id, "state": QUEUED,
                     "reason": "checkpointed"}
                )
        finally:
            if job.finished:
                self.queue.job_finished(job)
                if self.fabric is not None:
                    # Settled cells already flip the fabric job terminal;
                    # this covers jobs that sent no cell to the fleet and
                    # records cancellations.
                    state = FAILED if job.state in (FAILED, CANCELLED) else DONE
                    try:
                        self.fabric.finish_job(job.id, state)
                    except Exception:
                        pass  # accounting only; never fail the settle path
            self._persist_job(job)

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------

    def _execute_job(self, job: Job) -> bool:
        """Run one job's sweep; returns True when every cell finished."""
        spec = job.spec
        simulator = Simulator(sharer_key=spec.sharer_key)
        recorder: ManifestRecorder | None = None
        job_dir = self._job_dir(job.id)
        if job_dir is not None:
            manager = CheckpointManager(job_dir)
            fingerprint = {"job_spec": spec.spec_hash()}
            if manager.exists():
                recorder = ManifestRecorder(manager, manager.load_manifest(fingerprint))
            else:
                recorder = ManifestRecorder(manager, manager.new_manifest(fingerprint))
                recorder.save()
        restored = recorder.manifest["completed"] if recorder is not None else {}

        def checkpoint_cell(scheme: str, trace_name: str, result_json) -> None:
            if recorder is not None:
                recorder.record_completed(scheme, trace_name, result_json)

        # Each trace's name and fingerprint; a failed lookup poisons only
        # its own cells.  ``traces`` holds what this job built, and is
        # the only reference to any of them.
        traces: list[Any] = [None] * len(spec.traces)
        names: list[str] = []
        fingerprints: list[str | Exception] = []
        for t_index, tspec in enumerate(spec.traces):
            try:
                name, fingerprint, traces[t_index] = self.fingerprints.lookup(tspec)
            except Exception as exc:
                name = tspec.workload or os.path.basename(tspec.path or "?")
                fingerprint = exc
            names.append(name)
            fingerprints.append(fingerprint)

        owned: list[tuple[CellTask, InFlightCell]] = []
        waiting: list[tuple[CellTask, InFlightCell]] = []
        index = 0
        for scheme_spec, skey in zip(spec.scheme_specs(), spec.scheme_keys()):
            for name, fingerprint in zip(names, fingerprints):
                cell = CellTask(
                    spec=scheme_spec, scheme_key=skey, trace=None,
                    trace_name=name, index=index,
                )
                index += 1
                if isinstance(fingerprint, Exception):
                    self._fail(job, cell, fingerprint, checkpoint_cell)
                    continue
                if name in restored.get(skey, {}):
                    job.record_cell(
                        scheme=skey, trace_name=name, index=cell.index,
                        source=SOURCE_CHECKPOINT,
                        payload={
                            "status": "ok",
                            "result": restored[skey][name],
                            "attempts": 1,
                        },
                    )
                    self.metrics.bump("cells_checkpoint")
                    continue
                cell.cache_id = cache_key(scheme_spec, simulator, fingerprint)
                if self._try_cache(job, cell, checkpoint_cell):
                    continue
                entry, is_owner = self.inflight.claim(cell.cache_id, job.id)
                (owned if is_owner else waiting).append((cell, entry))

        if self.fabric is not None:
            finished = self._run_owned_fabric(job, owned, checkpoint_cell)
        else:
            finished = self._run_owned(job, simulator, owned, traces, checkpoint_cell)
        return self._await_coalesced(
            job, simulator, waiting, traces, checkpoint_cell
        ) and finished

    def _finish(
        self, job: Job, cell: CellTask, payload: dict[str, Any], source: str,
        checkpoint_cell: Callable[[str, str, Any], None],
        entry: InFlightCell | None = None,
    ) -> None:
        """Record one resolved cell: cache, manifest, counters, in-flight, event.

        Results computed in-process or by the fleet are cached before
        *entry* resolves, so late claimants hit the cache.  The engine
        observer already counted the outcome of in-process simulations.
        """
        ok = payload["status"] == "ok"
        if ok:
            if source in (SOURCE_SIMULATED, SOURCE_FABRIC):
                self.result_cache.put_json(cell.cache_id, payload["result"])
            checkpoint_cell(cell.scheme_key, cell.trace_name, payload["result"])
        if source != SOURCE_SIMULATED:
            self.metrics.bump(f"cells_{source}" if ok else "cells_failed")
        if entry is not None:
            self.inflight.resolve_and_release(entry, payload)
        job.record_cell(
            scheme=cell.scheme_key, trace_name=cell.trace_name, index=cell.index,
            source=source, payload=payload,
        )

    def _fail(
        self, job: Job, cell: CellTask, exc: Exception,
        checkpoint_cell: Callable[[str, str, Any], None],
        entry: InFlightCell | None = None,
    ) -> None:
        """Settle a cell whose trace could not be resolved or built."""
        self.metrics.bump("cells_failed")
        payload = {
            "status": "error",
            "category": type(exc).__name__,
            "message": str(exc),
            "attempts": 1,
        }
        self._finish(job, cell, payload, SOURCE_SIMULATED, checkpoint_cell, entry)

    def _try_cache(self, job: Job, cell: CellTask, checkpoint_cell) -> bool:
        """Serve *cell* from the result cache; False on a miss."""
        cached = self.result_cache.get_json(cell.cache_id)
        if cached is None:
            return False
        # Content-addressed: relabel under this job's names.
        result_json = {
            **cached, "scheme": cell.scheme_key, "trace_name": cell.trace_name
        }
        payload = {"status": "ok", "result": result_json, "attempts": 1}
        self._finish(job, cell, payload, SOURCE_CACHE, checkpoint_cell)
        return True

    def _load_trace(
        self, job: Job, cell: CellTask, entry: InFlightCell,
        traces: list[Any], checkpoint_cell: Callable[[str, str, Any], None],
    ) -> bool:
        """Give an owned cell its trace, built on the job's first need."""
        t_index = cell.index % len(traces)
        try:
            if traces[t_index] is None:
                traces[t_index] = job.spec.traces[t_index].build()
        except Exception as exc:
            self._fail(job, cell, exc, checkpoint_cell, entry)
            return False
        cell.trace = traces[t_index]
        return True

    def _run_owned(
        self, job: Job, simulator: Simulator,
        owned: list[tuple[CellTask, InFlightCell]], traces: list[Any],
        checkpoint_cell: Callable[[str, str, Any], None],
    ) -> bool:
        """Execute this job's owned cells in stop-checked batches."""
        position = 0
        while position < len(owned):
            if job.stop_requested:
                for _, entry in owned[position:]:
                    self.inflight.abandon_and_release(entry)
                return False
            batch = [
                (cell, entry)
                for cell, entry in owned[position : position + self.sim_jobs]
                if self._load_trace(job, cell, entry, traces, checkpoint_cell)
            ]
            position += self.sim_jobs
            for cell, _ in batch:
                self.metrics.cell_started(cell)

            def on_complete(i: int, payload: dict[str, Any]) -> None:
                cell, entry = batch[i]
                self._finish(
                    job, cell, payload, SOURCE_SIMULATED, checkpoint_cell, entry
                )

            if len(batch) > 1:
                ProcessPoolBackend(jobs=self.sim_jobs, retry=self.retry).run(
                    simulator,
                    [cell for cell, _ in batch],
                    on_complete=on_complete,
                    observer=self.metrics,
                )
            elif batch:
                outcome = run_cell(
                    simulator, batch[0][0], retry=self.retry, observer=self.metrics
                )
                on_complete(0, outcome.to_payload())
        return True

    def _run_owned_fabric(
        self, job: Job,
        owned: list[tuple[CellTask, InFlightCell]],
        checkpoint_cell: Callable[[str, str, Any], None],
    ) -> bool:
        """Hand this job's owned cells to the fleet and collect outcomes.

        Cells are inserted idempotently (``ON CONFLICT (job_id, idx)``),
        so resuming a checkpointed job re-offers the same rows and
        immediately collects whatever the fleet settled in the
        meantime.  Only *owned* cells reach the queue — everything the
        scheduler resolved from cache/checkpoint/coalescing stays out,
        which is what keeps the fleet from re-simulating known results.
        """
        from repro.fabric.queue import (
            DEAD as CELL_DEAD,
            DONE as CELL_DONE,
            FAILED as CELL_FAILED,
            expand_spec,
        )

        if not owned:
            return True
        # The job row may be missing when this job was recovered from
        # state_dir before the fabric existed; (re)insert idempotently.
        self.fabric.submit(job.spec, job.id, expand=False)
        by_index = {cell.index: (cell, entry) for cell, entry in owned}
        self.fabric.add_cells(
            job.id,
            [
                # Filed under the built trace's name, as in-process cells are.
                {**cell, "trace_label": by_index[cell["idx"]][0].trace_name}
                for cell in expand_spec(job.spec)
                if cell["idx"] in by_index
            ],
        )

        pending = set(by_index)
        while pending:
            if job.stop_requested:
                # Leased cells keep running; their results settle in the
                # db and are collected on resume (or served from cache).
                for index in pending:
                    self.inflight.abandon_and_release(by_index[index][1])
                return False
            for outcome in self.fabric.cell_outcomes(job.id):
                index = outcome["index"]
                if index not in pending:
                    continue
                state = outcome["state"]
                if state in (CELL_DONE, CELL_FAILED):
                    payload = outcome["payload"]
                elif state == CELL_DEAD:
                    payload = {
                        "status": "error",
                        "category": outcome["last_category"] or "ReproError",
                        "message": outcome["last_error"]
                        or "dead-lettered by the fabric",
                        "attempts": outcome["attempts"],
                    }
                else:
                    continue  # still pending/leased
                pending.discard(index)
                cell, entry = by_index[index]
                self._finish(job, cell, payload, SOURCE_FABRIC, checkpoint_cell, entry)
            if pending:
                try:
                    # Reap here too: with no live worker, this is what
                    # requeues or dead-letters an abandoned lease.
                    self.fabric.reap()
                except Exception:
                    pass
                time.sleep(_WAIT_POLL)
        return True

    def _await_coalesced(
        self, job: Job, simulator: Simulator,
        waiting: list[tuple[CellTask, InFlightCell]], traces: list[Any],
        checkpoint_cell: Callable[[str, str, Any], None],
    ) -> bool:
        """Collect outcomes for cells another job is computing."""
        finished = True
        for cell, entry in waiting:
            while True:
                if job.stop_requested:
                    finished = False
                    break
                if not entry.wait(_WAIT_POLL):
                    continue
                if not entry.abandoned:
                    self._finish(
                        job, cell, entry.outcome, SOURCE_COALESCED, checkpoint_cell
                    )
                    break
                # Abandoned by a stopped owner: re-resolve ourselves.
                if self._try_cache(job, cell, checkpoint_cell):
                    break
                entry, is_owner = self.inflight.claim(cell.cache_id, job.id)
                if is_owner:
                    finished = self._run_owned(
                        job, simulator, [(cell, entry)], traces, checkpoint_cell
                    ) and finished
                    break
        return finished
