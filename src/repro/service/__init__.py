"""repro.service — the simulation service (async jobs over HTTP/JSON).

The first long-running subsystem in the repo: instead of one-shot CLI
sweeps, a server process keeps the content-addressed
:class:`~repro.runner.cache.ResultCache`, a small memo of trace
fingerprints, and a pool of simulation workers warm, and multiplexes
many callers onto them:

* :mod:`repro.service.spec` — the JSON job-spec format, validation,
  and the trace-fingerprint memo shared with the fabric workers.
* :mod:`repro.service.jobs` — job lifecycle + append-only event log.
* :mod:`repro.service.queue` — priority queue with job-level dedup.
* :mod:`repro.service.coalesce` — cell-level request coalescing: one
  simulation per identical in-flight cell, ever.
* :mod:`repro.service.scheduler` — worker threads fanning cells onto
  the engine's :class:`~repro.engine.backends.ProcessPoolBackend`,
  with checkpointed graceful shutdown and restart-resume.
* :mod:`repro.service.api` — the stdlib HTTP server (``POST /jobs``,
  ``GET /jobs/<id>``, NDJSON ``GET /jobs/<id>/events``, ``/healthz``,
  ``/stats``, ``POST /shutdown``).
* :mod:`repro.service.client` — :class:`ServiceClient`, a thin
  synchronous client.

See ``docs/SERVICE.md`` for the API reference and deployment notes,
and ``examples/service_client.py`` for an end-to-end walkthrough.
"""

from repro import lazy_exports

_EXPORTS = {
    "CANCELLED": "repro.service.jobs",
    "DONE": "repro.service.jobs",
    "FAILED": "repro.service.jobs",
    "QUEUED": "repro.service.jobs",
    "RUNNING": "repro.service.jobs",
    "TERMINAL_STATES": "repro.service.jobs",
    "InFlightCell": "repro.service.coalesce",
    "InFlightTable": "repro.service.coalesce",
    "Job": "repro.service.jobs",
    "JobQueue": "repro.service.queue",
    "JobSpec": "repro.service.spec",
    "JobStore": "repro.service.jobs",
    "Scheduler": "repro.service.scheduler",
    "ServiceClient": "repro.service.client",
    "ServiceServer": "repro.service.api",
    "TraceSpec": "repro.service.spec",
    "parse_job_spec": "repro.service.spec",
    "serve": "repro.service.api",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
