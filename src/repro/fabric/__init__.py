"""``repro.fabric``: the durable, crash-safe work-distribution layer.

The service's in-memory queue (:mod:`repro.service.queue`) dies with
its process.  The fabric replaces that single point of loss with one
SQLite file (WAL mode, stdlib :mod:`sqlite3`) holding every job and its
expanded (scheme × trace) cells:

* :class:`~repro.fabric.queue.DurableCellQueue` — cells move through
  ``pending → leased → done/failed/dead`` under time-bounded leases;
* :class:`~repro.fabric.worker.FabricWorker` — a worker (process via
  ``repro work --db``, or in-process thread) leases cells, heartbeats
  while simulating, and settles results idempotently;
* :class:`~repro.fabric.reaper.Reaper` — reassigns expired leases so a
  SIGKILL'd worker's cells are re-run by survivors;
* :mod:`~repro.fabric.chaos` — the deterministic kill-a-worker harness
  proving sweeps finish bit-identical to a serial engine run;
* :class:`~repro.fabric.bridge.DurableJobQueue` — the scheduler's
  drop-in durable job queue (same interface as
  :class:`~repro.service.queue.JobQueue`).

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
    "DurableJobQueue": "repro.fabric.bridge",
    "FabricWorker": "repro.fabric.worker",
    "LeasedCell": "repro.fabric.queue",
    "Reaper": "repro.fabric.reaper",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
