"""Jobs: the unit of work the service queues, runs, and streams.

A :class:`Job` wraps one validated :class:`~repro.service.spec.JobSpec`
with lifecycle state and an append-only event log.  Events are plain
JSON-safe dicts — exactly the NDJSON lines ``GET /jobs/<id>/events``
streams — and appending one wakes every streamer blocked in
:meth:`Job.wait_for_event`, so delivery is push-shaped even though the
transport is plain HTTP.

Thread model: every mutation goes through the job's condition variable.
The scheduler's worker threads append events and flip states; HTTP
handler threads only ever read (snapshot) or block waiting for the next
event.

:class:`JobStore` is the one owner of a job's memory and files.  It
queues jobs by priority, deduplicates identical specs when asked, and
holds only the queued and running jobs.  A finished job leaves memory:
its record (final status body and event log) goes to
``<root>/<id>/record.json``, and a lookup rebuilds the job from it, so
a finished job answers exactly as it did while it was live.  The root
is the service's ``STATE_DIR/jobs``, where each job's ``job.json`` also
follows its state for a restarted server to resume, or, without a state
dir, a private temporary directory the store removes when it closes.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.errors import JobNotFoundError, ServiceUnavailableError
from repro.runner.checkpoint import CheckpointManager
from repro.service.spec import JobSpec, parse_job_spec

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: How a cell outcome was obtained (the engine's ``CellOutcome.source``).
CELL_SOURCES = ("simulated", "cache", "coalesced", "checkpoint", "fabric")

#: A job's spec and state, under its job directory (durable stores only).
JOB_FILE = "job.json"

#: A finished job's record file, under its job directory.
RECORD_FILE = "record.json"


class JobStopped(Exception):
    """A job's sweep stopped at a cell boundary; the job stays resumable."""


def new_job_id() -> str:
    """A fresh, URL-safe job id: 12 random hex digits."""
    return os.urandom(6).hex()


class Job:
    """One submitted sweep: spec + lifecycle + event log.

    Args:
        spec: the validated job spec.
        job_id: explicit id (used when recovering a persisted job);
            a fresh one is generated when omitted.
    """

    def __init__(self, spec: JobSpec, job_id: str | None = None) -> None:
        self.id = job_id or new_job_id()
        self.spec = spec
        self.state = QUEUED
        self.error: str | None = None
        #: completed cells: results[scheme_key][trace_name] -> result JSON
        self.results: dict[str, dict[str, Any]] = {}
        #: per-source completed-cell counts (simulated/cache/coalesced/...)
        self.cell_sources: dict[str, int] = {source: 0 for source in CELL_SOURCES}
        self.cell_errors = 0
        self._events: list[dict[str, Any]] = []
        self._cond = threading.Condition()
        self.stop_requested = False

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Job":
        """Rebuild a finished job from :meth:`record`'s output."""
        status = record["status"]
        job = cls(parse_job_spec(status["spec"]), job_id=status["id"])
        job.state = status["state"]
        job.error = status["error"]
        job.results = status["results"]
        cells = dict(status["cells"])
        del cells["total"], cells["completed"]
        job.cell_errors = cells.pop("errors")
        job.cell_sources = cells
        job._events = record["events"]
        return job

    def record(self) -> dict[str, Any]:
        """The JSON-safe record :meth:`from_record` rebuilds this job from."""
        with self._cond:
            return {
                "status": self.status(include_results=True),
                "events": list(self._events),
            }

    # -- state ---------------------------------------------------------

    def set_state(self, state: str, error: str | None = None) -> None:
        """Move to *state* (appending the terminal event when terminal)."""
        with self._cond:
            if self.state in TERMINAL_STATES:
                return
            self.state = state
            if error is not None:
                self.error = error
            if state in TERMINAL_STATES:
                self._append_locked(
                    {
                        "type": "job",
                        "job": self.id,
                        "state": state,
                        "error": self.error,
                        "cells": dict(self.cell_sources),
                        "cell_errors": self.cell_errors,
                    }
                )
            self._cond.notify_all()

    def record_error(self, error: str) -> None:
        """Note *error* on the job whatever its state (a terminal job's
        last steps can still fail)."""
        with self._cond:
            self.error = error

    def request_stop(self) -> None:
        """Ask the running sweep to stop at the next cell boundary."""
        with self._cond:
            self.stop_requested = True
            self._cond.notify_all()

    def check_stop(self) -> None:
        """Raise :class:`JobStopped` once a stop has been requested."""
        if self.stop_requested:
            raise JobStopped(self.id)

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    # -- events --------------------------------------------------------

    def _append_locked(self, event: dict[str, Any]) -> None:
        event["seq"] = len(self._events)
        self._events.append(event)
        self._cond.notify_all()

    def append_event(self, event: dict[str, Any]) -> None:
        """Append one event (stamping ``seq``) and wake streamers."""
        with self._cond:
            self._append_locked(event)

    def record_cell(
        self,
        *,
        scheme: str,
        trace_name: str,
        index: int,
        source: str,
        payload: dict[str, Any],
    ) -> None:
        """Record one finished cell and emit its event.

        Args:
            scheme: the cell's scheme result key.
            trace_name: the cell's trace name.
            index: the cell's position in sweep order.
            source: one of :data:`CELL_SOURCES`.
            payload: the runner outcome payload (``status`` ok/error).
        """
        event: dict[str, Any] = {
            "type": "cell",
            "job": self.id,
            "scheme": scheme,
            "trace": trace_name,
            "index": index,
            "source": source,
            "status": payload["status"],
            "attempts": payload.get("attempts", 1),
        }
        with self._cond:
            if payload["status"] == "ok":
                self.results.setdefault(scheme, {})[trace_name] = payload["result"]
                self.cell_sources[source] = self.cell_sources.get(source, 0) + 1
                event["result"] = payload["result"]
            else:
                self.cell_errors += 1
                event["error"] = {
                    "category": payload.get("category", "ReproError"),
                    "message": payload.get("message", ""),
                }
            self._append_locked(event)

    def events_since(self, seq: int) -> list[dict[str, Any]]:
        """Snapshot of events with ``seq >= seq``."""
        with self._cond:
            return list(self._events[seq:])

    def wait_for_event(self, seq: int, timeout: float = 1.0) -> list[dict[str, Any]]:
        """Block until an event with ``seq >= seq`` exists (or timeout)."""
        with self._cond:
            if len(self._events) <= seq and not self.finished:
                self._cond.wait(timeout)
            return list(self._events[seq:])

    def stream_events(
        self, poll: float = 0.5, stop: threading.Event | None = None
    ) -> Iterator[dict[str, Any]]:
        """Yield every event in order, following until the job is terminal."""
        seq = 0
        while True:
            batch = self.wait_for_event(seq, timeout=poll)
            for event in batch:
                yield event
            seq += len(batch)
            with self._cond:
                drained = self.finished and seq >= len(self._events)
            if drained or (stop is not None and stop.is_set()):
                return

    # -- views ---------------------------------------------------------

    def completed_cells(self) -> int:
        with self._cond:
            return sum(self.cell_sources.values())

    def status(self, include_results: bool = False) -> dict[str, Any]:
        """JSON-safe status snapshot (the ``GET /jobs/<id>`` body)."""
        with self._cond:
            body: dict[str, Any] = {
                "id": self.id,
                "state": self.state,
                "error": self.error,
                "priority": self.spec.priority,
                "spec": self.spec.canonical(),
                "spec_hash": self.spec.spec_hash(),
                "events": len(self._events),
                "cells": {
                    "total": self.spec.cell_count(),
                    "completed": sum(self.cell_sources.values()),
                    "errors": self.cell_errors,
                    **{
                        source: count
                        for source, count in self.cell_sources.items()
                    },
                },
            }
            if include_results or self.state == DONE:
                body["results"] = {
                    scheme: dict(per_trace)
                    for scheme, per_trace in self.results.items()
                }
            return body


class JobStore:
    """The one table of the service's jobs: queue, dedup index and files.

    One lock guards the live jobs, the heap that orders the queued ones
    (larger priority first, FIFO within a priority), the dedup index
    (spec hash → live job) and the finished jobs' per-state counts.
    Every file in a job directory ``<root>/<id>/`` but the engine's
    checkpoint is written here: ``job.json`` and ``record.json``.

    Args:
        root: the job directories' parent, normally ``STATE_DIR/jobs``;
            the store is then durable: each job's ``job.json`` follows
            its state, and :meth:`recover` re-queues it after a
            restart.  None makes a private temporary directory, for
            finished jobs' records only, that :meth:`close` removes.
        mirror: called with each job :meth:`submit` files, right after
            its ``job.json`` and before any worker can pop it (the
            scheduler's fabric mode writes the job's fabric row here).
    """

    def __init__(
        self,
        root: str | Path | None = None,
        mirror: Callable[[Job], None] | None = None,
    ) -> None:
        self._private: tempfile.TemporaryDirectory | None = None
        if root is None:
            self._private = tempfile.TemporaryDirectory(
                prefix="repro-service-jobs-", ignore_cleanup_errors=True
            )
            root = self._private.name
        self.root = Path(root)
        self.durable = self._private is None
        self._mirror = mirror
        self._jobs: dict[str, Job] = {}
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        #: spec hash -> live job, for dedup.
        self._active: dict[str, Job] = {}
        self._finished: dict[str, int] = {state: 0 for state in TERMINAL_STATES}
        #: set by :meth:`stop`: submissions are refused from then on.
        self.stopping = False
        self._cond = threading.Condition()

    # -- the queue -----------------------------------------------------

    def submit(self, job: Job) -> tuple[Job, bool]:
        """File *job* and queue it; returns ``(job, deduplicated)``.

        When the job's spec has ``dedup`` set and an identical spec is
        queued or running, that job is returned with
        ``deduplicated=True`` and *job* is discarded.  Otherwise the job
        is in the table, its ``job.json`` on disk and its mirror written
        before any worker can pop it.
        """
        spec_hash = job.spec.spec_hash()
        with self._cond:
            if self.stopping:
                raise ServiceUnavailableError("service is shutting down")
            existing = self._active.get(spec_hash)
            if job.spec.dedup and existing is not None and not existing.finished:
                return existing, True
            self._file_job(job)
            if self._mirror is not None:
                self._mirror(job)
            self._jobs[job.id] = job
            self._active[spec_hash] = job
            heapq.heappush(self._heap, (-job.spec.priority, next(self._seq), job))
            self._cond.notify_all()
            return job, False

    def pop(self, timeout: float = 0.5) -> Job | None:
        """The next queued job by priority, or None on timeout.

        A stopped, empty queue returns at once: workers noticing
        shutdown must not sit out the full timeout first.
        """
        with self._cond:
            if not self._heap and not self.stopping:
                self._cond.wait(timeout)
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[2]

    def start(self, job: Job) -> None:
        """Mark a popped job running, and file that."""
        job.set_state(RUNNING)
        self._file_job(job)

    def settle(self, job: Job) -> None:
        """File a job its worker is done with: retire a finished one; a
        parked one (stopped at a cell boundary) stays, queued on disk."""
        try:
            self._file_job(job)
            if job.finished:
                self.retire(job)
        finally:
            with self._cond:
                self._cond.notify_all()  # wake wait_idle

    def retire(self, job: Job) -> None:
        """Write a finished job's record, then forget the job."""
        self._write(job.id, RECORD_FILE, json.dumps(job.record()))
        with self._cond:
            self._jobs.pop(job.id, None)
            if self._active.get(job.spec.spec_hash()) is job:
                del self._active[job.spec.spec_hash()]
            self._finished[job.state] += 1

    def stop(self) -> None:
        """Refuse further submissions and wake blocked workers."""
        with self._cond:
            self.stopping = True
            self._cond.notify_all()

    def drain(self) -> list[Job]:
        """Remove and return every queued job, in priority order."""
        with self._cond:
            jobs = [job for _, _, job in sorted(self._heap)]
            self._heap.clear()
            return jobs

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or running; False on timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not any(
                    job.state in (QUEUED, RUNNING) for job in self._jobs.values()
                ),
                timeout,
            )

    def queue_depth(self) -> int:
        """Jobs waiting to be popped."""
        with self._cond:
            return len(self._heap)

    # -- files ---------------------------------------------------------

    def directory(self, job_id: str) -> Path | None:
        """A durable job's directory (its checkpoint lives there too)."""
        return self.root / job_id if self.durable else None

    def _file_job(self, job: Job) -> None:
        """Write the job's spec and state to its ``job.json`` (durable only)."""
        if not self.durable:
            return
        payload = {
            "id": job.id,
            "state": job.state,
            "error": job.error,
            "spec": job.spec.canonical(),
        }
        self._write(job.id, JOB_FILE, json.dumps(payload, indent=1, sort_keys=True))

    def _write(self, job_id: str, name: str, text: str) -> None:
        directory = self.root / job_id
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        # Unique per writer: two threads may write one file at once (two
        # lookups rebuilding one record), and a shared tmp name would let
        # one replace() lose the file.
        tmp = path.with_name(f"{name}.{threading.get_ident()}.tmp")
        tmp.write_text(text, "utf-8")
        os.replace(tmp, path)

    def recover(self, pending: Iterable[dict[str, Any]]) -> None:
        """Take back the jobs a previous server left: count the finished
        ones, queue the rest.

        The ``job.json`` files come first: they name the finished jobs,
        which stay on disk until looked up.  *pending* (the fabric db's
        unfinished jobs, ``{"id", "spec", "state"}`` each) then adds the
        jobs it outlived, e.g. ones submitted to a service with no
        state dir and orphaned by a crash.
        """
        found: dict[str, dict[str, Any]] = {}
        if self.durable and self.root.is_dir():
            for directory in sorted(self.root.iterdir()):
                try:
                    persisted = json.loads((directory / JOB_FILE).read_text("utf-8"))
                except Exception:
                    continue  # a corrupt job file never blocks startup
                found[persisted.get("id") or directory.name] = persisted
        for persisted in pending:
            found.setdefault(persisted["id"], persisted)  # the job file wins
        # Jobs submitted before recovery are filed and already queued.
        live = {job.id for job in self.all()}
        for job_id, persisted in found.items():
            if job_id in live:
                continue
            if persisted.get("state") in TERMINAL_STATES:
                with self._cond:
                    self._finished[persisted["state"]] += 1
                continue
            try:
                job = Job(parse_job_spec(persisted["spec"]), job_id=job_id)
            except Exception:
                continue  # nor does a corrupt spec, from either source
            if self.submit(job)[1]:
                # Two persisted copies of one dedup'd spec: keep one.
                job.set_state(CANCELLED, error="deduplicated on recovery")
                self._file_job(job)
                self.retire(job)

    # -- lookups -------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The live job, or a finished one rebuilt from its record."""
        with self._cond:
            job = self._jobs.get(job_id)
        # Only a plain name can be a job directory under the root.
        plain = job_id not in ("", ".", "..") and Path(job_id).name == job_id
        if job is None and plain:
            job = self._load(job_id)
        if job is None:
            raise JobNotFoundError(f"unknown job id {job_id!r}")
        return job

    def _load(self, job_id: str) -> Job | None:
        try:
            record = (self.root / job_id / RECORD_FILE).read_text("utf-8")
        except FileNotFoundError:
            job = self._from_manifest(job_id)
            if job is not None:
                self._write(job_id, RECORD_FILE, json.dumps(job.record()))
            return job
        return Job.from_record(json.loads(record))

    def _from_manifest(self, job_id: str) -> Job | None:
        """A finished job an older server filed with no record, its
        results rebuilt from its checkpoint manifest."""
        directory = self.root / job_id
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

    def all(self) -> list[Job]:
        """Every queued or running job."""
        with self._cond:
            return list(self._jobs.values())

    def state_counts(self) -> dict[str, int]:
        """``{state: job count}`` across every job, live or finished."""
        counts: dict[str, int] = {
            state: 0 for state in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
        }
        with self._cond:
            for state, count in self._finished.items():
                counts[state] += count
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def __len__(self) -> int:
        with self._cond:
            return len(self._jobs) + sum(self._finished.values())

    def close(self) -> None:
        """Remove the private record directory, if this store made one."""
        if self._private is not None:
            self._private.cleanup()
