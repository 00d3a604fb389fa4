"""The bridge: a durable drop-in for the service's in-memory job queue.

:class:`DurableJobQueue` is a :class:`~repro.service.queue.JobQueue`
(same submit/pop/close interface, same priority and dedup semantics —
the scheduler does not know the difference) that additionally mirrors
every accepted job into the fabric database.  What that buys:

* a job submitted to the service survives the service — after a crash,
  :meth:`recover_specs` hands a restarted scheduler every unfinished
  job, even with no ``state_dir`` configured;
* the scheduler's fabric execution mode
  (``Scheduler(fabric_db=...)``) can enqueue a job's *owned* cells
  under the same ``job_id``, because the job row already exists.

Only the job rows are mirrored at submission time.  Cells are
deliberately **not** expanded here: the scheduler first resolves each
cell against its checkpoint manifest, the shared result cache, and the
in-flight coalescing table, and only the cells it actually *owns* —
:func:`~repro.fabric.queue.expand_spec`'s descriptors filtered to
their indices — are handed to the fleet; otherwise workers would
re-simulate work the service already has.
"""

from __future__ import annotations

from typing import Any

from repro.service.jobs import Job
from repro.service.queue import JobQueue

from repro.fabric.queue import DurableCellQueue


class DurableJobQueue(JobQueue):
    """A :class:`JobQueue` whose accepted jobs persist in the fabric db.

    Args:
        fabric: the shared durable cell queue (one per fabric db).
    """

    def __init__(self, fabric: DurableCellQueue) -> None:
        super().__init__()
        self.fabric = fabric

    def submit(self, job: Job) -> tuple[Job, bool]:
        accepted, deduplicated = super().submit(job)
        if not deduplicated:
            # Job row only — owned cells are added at execution time.
            self.fabric.submit(accepted.spec, accepted.id, expand=False)
        return accepted, deduplicated

    def job_finished(self, job: Job) -> None:
        super().job_finished(job)
        # Cells settling already flip the fabric job terminal; this
        # covers jobs that never sent a cell to the fleet (all cells
        # cache/checkpoint/coalesced resolved, or failed before the
        # fabric) and records cancellations.
        state = "failed" if job.state in ("failed", "cancelled") else "done"
        try:
            self.fabric.finish_job(job.id, state)
        except Exception:
            pass  # accounting only; never fail the scheduler's settle path

    def recover_specs(self) -> list[dict[str, Any]]:
        """Unfinished persisted jobs as ``{"id", "spec"}`` dicts.

        The scheduler re-parses and re-submits these on startup —
        skipping any id it already recovered from its ``state_dir`` —
        so a fleet's queue survives even a service that kept no local
        state.
        """
        return [
            {"id": entry["id"], "spec": entry["spec"]}
            for entry in self.fabric.pending_jobs()
        ]
