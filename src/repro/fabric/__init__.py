"""``repro.fabric``: the durable, crash-safe work-distribution layer.

The service's job queue (:class:`repro.service.jobs.JobStore`) lives in
its process.  The fabric replaces that single point of loss with one
SQLite file (WAL mode, stdlib :mod:`sqlite3`) holding every job and its
expanded (scheme × trace) cells:

* :class:`~repro.fabric.queue.DurableCellQueue` — cells move through
  ``pending → leased → done/failed/dead`` under time-bounded leases;
* :class:`~repro.fabric.queue.FleetBackend` — the engine backend that
  offers a job's cells to the queue and collects what the fleet settles;
* :class:`~repro.fabric.worker.FabricWorker` — a worker (process via
  ``repro work --db``, or in-process thread) leases cells, heartbeats
  while simulating, settles results idempotently, and reaps expired
  leases on every poll so a SIGKILL'd worker's cells are re-run by
  survivors;
* :mod:`~repro.fabric.chaos` — the deterministic kill-a-worker harness
  proving sweeps finish bit-identical to a serial engine run.

The service's scheduler (``Scheduler(fabric_db=...)``) mirrors each
accepted job into the same database, runs its cells through a
``FleetBackend``, and recovers unfinished jobs from it at startup.

See ``docs/SERVICE.md`` ("Durable fleet") for the schema, the lease
semantics, and the failure matrix.
"""

from repro import lazy_exports

_EXPORTS = {
    "CELL_STATES": "repro.fabric.queue",
    "DEAD": "repro.fabric.queue",
    "DONE": "repro.fabric.queue",
    "FAILED": "repro.fabric.queue",
    "LEASED": "repro.fabric.queue",
    "PENDING": "repro.fabric.queue",
    "DurableCellQueue": "repro.fabric.queue",
    "FabricWorker": "repro.fabric.worker",
    "FleetBackend": "repro.fabric.queue",
    "LeasedCell": "repro.fabric.queue",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
