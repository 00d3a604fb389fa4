"""The job queue: priority ordering, blocking pop, job-level dedup.

Jobs are ordered by ``(-priority, submission sequence)`` — larger
priority first, FIFO within a priority.  :meth:`JobQueue.submit`
optionally dedups: when the spec asks for it (``"dedup": true``) and an
identical spec (same :meth:`~repro.service.spec.JobSpec.spec_hash`) is
already queued or running, the existing job is returned instead of a
copy being enqueued.  Dedup is job-level sugar; even without it,
duplicate *work* is eliminated cell-by-cell by the engine's in-flight
table (:class:`~repro.runner.cache.InFlightTable`): a cell another job
is already computing is waited on, not simulated again.

``pop`` blocks with a timeout so scheduler workers can notice shutdown;
``close`` wakes every blocked worker and makes further submissions
raise :class:`~repro.errors.ServiceUnavailableError`.
"""

from __future__ import annotations

import heapq
import itertools
import threading

from repro.errors import ServiceUnavailableError
from repro.service.jobs import Job


class JobQueue:
    """Priority queue of :class:`~repro.service.jobs.Job` with dedup."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Job]] = []
        self._cond = threading.Condition()
        self._seq = itertools.count()
        #: spec hash -> active (queued or running) job, for dedup.
        self._active: dict[str, Job] = {}
        self._closed = False

    # -- submission ----------------------------------------------------

    def submit(self, job: Job) -> tuple[Job, bool]:
        """Enqueue *job*; returns ``(job, deduplicated)``.

        When the job's spec has ``dedup`` set and an identical spec is
        already active, the active job is returned with
        ``deduplicated=True`` and *job* is discarded.
        """
        spec_hash = job.spec.spec_hash()
        with self._cond:
            if self._closed:
                raise ServiceUnavailableError("service is shutting down")
            if job.spec.dedup:
                existing = self._active.get(spec_hash)
                if existing is not None and not existing.finished:
                    return existing, True
            self._active[spec_hash] = job
            heapq.heappush(self._heap, (-job.spec.priority, next(self._seq), job))
            self._cond.notify()
            return job, False

    # -- consumption ---------------------------------------------------

    def pop(self, timeout: float = 0.5) -> Job | None:
        """The next job by priority, or ``None`` on timeout/closed queue.

        A closed, empty queue returns immediately — workers noticing
        shutdown must not sit out the full timeout first.
        """
        with self._cond:
            if not self._heap and not self._closed:
                self._cond.wait(timeout)
            if not self._heap:
                return None
            _, _, job = heapq.heappop(self._heap)
            return job

    def job_finished(self, job: Job) -> None:
        """Drop *job* from the dedup table once it is terminal."""
        spec_hash = job.spec.spec_hash()
        with self._cond:
            if self._active.get(spec_hash) is job:
                del self._active[spec_hash]

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Refuse further submissions and wake blocked workers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def drain(self) -> list[Job]:
        """Remove and return every queued job (used at shutdown)."""
        with self._cond:
            jobs = [job for _, _, job in sorted(self._heap)]
            self._heap.clear()
            return jobs

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)
