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

:class:`JobStore` holds only the jobs that are queued or running.  A
finished job leaves memory: its record (the final status body and the
event log) is written to ``<root>/<id>/record.json``, and a lookup
rebuilds the job from that file, so a finished job answers exactly as
it did while it was live.  The root is the service's ``STATE_DIR/jobs``
or, without a state dir, a private temporary directory the store
removes when it closes.  Per-state counters keep ``/stats`` whole.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import uuid
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import JobNotFoundError
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

#: A finished job's record file, under its job directory.
RECORD_FILE = "record.json"


class JobStopped(Exception):
    """A job's sweep stopped at a cell boundary; the job stays resumable."""


def new_job_id() -> str:
    """A fresh, URL-safe job id."""
    return uuid.uuid4().hex[:12]


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
    """Thread-safe id → :class:`Job` map of the queued and running jobs.

    Args:
        root: where finished jobs' records live, one directory per job;
            None makes a private temporary directory that :meth:`close`
            removes.
        restore: rebuilds a finished job that has no record file (one
            written by an older server), or returns None.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        restore: Callable[[str], Job | None] | None = None,
    ) -> None:
        self._private: tempfile.TemporaryDirectory | None = None
        if root is None:
            self._private = tempfile.TemporaryDirectory(
                prefix="repro-service-jobs-", ignore_cleanup_errors=True
            )
            root = self._private.name
        self.root = Path(root)
        self._restore = restore
        self._jobs: dict[str, Job] = {}
        self._finished: dict[str, int] = {state: 0 for state in TERMINAL_STATES}
        self._lock = threading.Lock()

    def add(self, job: Job) -> None:
        with self._lock:
            self._jobs[job.id] = job

    def retire(self, job: Job) -> None:
        """Write a finished job's record, then forget the job."""
        self._write_record(job.id, job.record())
        with self._lock:
            del self._jobs[job.id]
            self._finished[job.state] += 1

    def count_finished(self, state: str) -> None:
        """Count a finished job found on disk at startup."""
        with self._lock:
            self._finished[state] += 1

    def get(self, job_id: str) -> Job:
        """The live job, or a finished one rebuilt from its record."""
        with self._lock:
            job = self._jobs.get(job_id)
        # Only a plain name can be a job directory under the root.
        plain = job_id not in ("", ".", "..") and Path(job_id).name == job_id
        if job is None and plain:
            job = self._load(job_id)
        if job is None:
            raise JobNotFoundError(f"unknown job id {job_id!r}")
        return job

    def _load(self, job_id: str) -> Job | None:
        path = self.root / job_id / RECORD_FILE
        try:
            return Job.from_record(json.loads(path.read_text("utf-8")))
        except FileNotFoundError:
            pass
        job = self._restore(job_id) if self._restore is not None else None
        if job is not None:
            self._write_record(job_id, job.record())
        return job

    def _write_record(self, job_id: str, record: dict[str, Any]) -> None:
        directory = self.root / job_id
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / RECORD_FILE
        tmp = path.with_name(f"{path.name}.{threading.get_ident()}.tmp")
        tmp.write_text(json.dumps(record, sort_keys=True), "utf-8")
        os.replace(tmp, path)

    def all(self) -> list[Job]:
        """Every queued or running job."""
        with self._lock:
            return list(self._jobs.values())

    def state_counts(self) -> dict[str, int]:
        """``{state: job count}`` across every job, live or finished."""
        counts: dict[str, int] = {
            state: 0 for state in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
        }
        with self._lock:
            for state, count in self._finished.items():
                counts[state] += count
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs) + sum(self._finished.values())

    def close(self) -> None:
        """Remove the private record directory, if this store made one."""
        if self._private is not None:
            self._private.cleanup()
