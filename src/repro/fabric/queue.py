"""The durable cell queue: leases, attempts, dead letters, accounting.

One (scheme × trace) cell is the unit of distribution.  A cell moves
through::

    pending ──lease──▶ leased ──settle──▶ done | failed
       ▲                  │
       │   expiry/transient│
       └──────────────────┘──after max_attempts──▶ dead

* **pending** — waiting for a worker (``not_before`` gates retry
  backoff so a restarted fleet does not thundering-herd the queue);
* **leased** — owned by one worker until ``lease_deadline``; heartbeats
  renew the deadline, and :meth:`DurableCellQueue.reap` requeues expired
  leases;
* **done** — an ok outcome payload is settled in ``results``;
* **failed** — a *permanent* error outcome is settled (the fabric
  analogue of the engine's contained :class:`CellFailure`);
* **dead** — the cell burned through ``max_attempts`` leases (crashes
  and transient failures both count); listed by ``repro dlq``.

Leasing increments the cell's attempt counter, so a cell that keeps
killing its workers dead-letters instead of crash-looping the fleet
forever.  Completion is **idempotent**: results are settled with
``INSERT ... ON CONFLICT DO NOTHING`` on the cell id, so when a lease
expires under a worker that is actually still alive and two workers
finish the same cell, exactly one result wins and the loser is counted
as a ``duplicate_completions`` — never recorded twice.

Every method opens its own short transaction; instances are safe to
share across threads (per-thread connections, see
:mod:`repro.fabric.db`) and across processes (WAL + immediate
transactions).
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.fabric.db import ConnectionPool

#: Cell lifecycle states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
DEAD = "dead"

CELL_STATES = (PENDING, LEASED, DONE, FAILED, DEAD)

#: States a cell can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, DEAD})

#: Default leases per cell before it dead-letters.
DEFAULT_MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class LeasedCell:
    """One leased cell: everything a worker needs to simulate it."""

    id: int
    job_id: str
    index: int
    scheme: dict[str, Any]  #: canonical ``{"name", "options"}``
    scheme_key: str
    trace_spec: dict[str, Any]  #: canonical TraceSpec dict
    trace_label: str
    sharer_key: str
    attempts: int
    max_attempts: int
    lease_deadline: float

    @property
    def last_attempt(self) -> bool:
        return self.attempts >= self.max_attempts


def expand_spec(spec: Any, *, max_attempts: int | None = None) -> list[dict[str, Any]]:
    """Expand a :class:`~repro.service.spec.JobSpec` into cell descriptors.

    Descriptors are the JSON-safe rows :meth:`DurableCellQueue.add_cells`
    inserts — sweep order (scheme-major), matching
    :meth:`~repro.engine.plan.ExecutionPlan.cells`, so a row's ``idx`` is
    its cell's :attr:`~repro.engine.plan.CellTask.index`.
    """
    cells: list[dict[str, Any]] = []
    index = 0
    per_cell_attempts = max_attempts or getattr(spec, "max_attempts", None)
    for (name, options), key in zip(spec.schemes, spec.scheme_keys()):
        for tspec in spec.traces:
            cells.append(
                {
                    "idx": index,
                    "scheme": {"name": name, "options": dict(options)},
                    "scheme_key": key,
                    "trace_spec": tspec.canonical(),
                    "trace_label": tspec.label,
                    "sharer_key": spec.sharer_key,
                    "priority": spec.priority,
                    **(
                        {"max_attempts": per_cell_attempts}
                        if per_cell_attempts
                        else {}
                    ),
                }
            )
            index += 1
    return cells


#: Seconds between a dispatching job's polls for settled cells.
_POLL_S = 0.1


@dataclass
class FleetBackend:
    """Runs one job's cells on the lease-based worker fleet.

    The engine's third backend, beside inline and the process pool.
    Each dispatched cell becomes its :func:`expand_spec` row, filed
    under the cell's trace name, for fleet members to lease, simulate
    and settle.  Rows are inserted idempotently, so a resumed job
    re-offers them and collects whatever the fleet settled meanwhile.

    Args:
        queue: the fleet's durable queue.
        job: the service :class:`~repro.service.jobs.Job` owning the
            cells: its id files the rows, its spec expands them, and a
            stop requested on it ends the wait (leased cells keep
            running and settle in the db).
    """

    queue: DurableCellQueue
    job: Any

    #: Fleet members build each cell's trace from its spec themselves.
    builds_traces = True

    def run(
        self, simulator: Any, cells: list[Any], on_complete: Any, *, observer: Any
    ) -> dict[int, dict[str, Any]]:
        """Offer *cells* to the fleet; returns ``{cell index: payload}``."""
        from repro.engine.plan import CellOutcome

        outcomes: dict[int, dict[str, Any]] = {}
        if not cells:
            return outcomes
        for task in cells:
            observer.cell_started(task)
        job = self.job
        # The job row is missing when the job was recovered from a state
        # directory the fabric never saw; (re)insert it idempotently.
        self.queue.submit(job.spec, job.id, expand=False)
        slots = {task.index: slot for slot, task in enumerate(cells)}
        self.queue.add_cells(
            job.id,
            [
                {**row, "trace_label": cells[slots[row["idx"]]].trace_name}
                for row in expand_spec(job.spec)
                if row["idx"] in slots
            ],
        )
        while len(outcomes) < len(cells):
            job.check_stop()
            for row in self.queue.cell_outcomes(job.id):
                slot = slots.get(row["index"])
                if slot is None or slot in outcomes:
                    continue
                if row["state"] in (DONE, FAILED):
                    payload = row["payload"]
                elif row["state"] == DEAD:
                    payload = {
                        "status": "error",
                        "category": row["last_category"] or "ReproError",
                        "message": row["last_error"] or "dead-lettered by the fabric",
                        "attempts": row["attempts"],
                    }
                else:
                    continue  # still pending or leased
                outcomes[slot] = payload
                observer.cell_finished(
                    cells[slot],
                    CellOutcome.from_payload(cells[slot], payload, source="fabric"),
                )
                on_complete(slot, payload)
            if len(outcomes) < len(cells):
                try:
                    # With no live member, this is what requeues or
                    # dead-letters an abandoned lease.
                    self.queue.reap()
                except Exception:
                    pass
                time.sleep(_POLL_S)
        return outcomes


class DurableCellQueue:
    """The SQLite-backed work queue shared by the whole fleet.

    Args:
        path: the database file (created, with schema, if missing).
        default_max_attempts: leases per cell before dead-lettering,
            when the cell descriptor does not set its own.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        default_max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if default_max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {default_max_attempts}"
            )
        self.path = Path(path)
        self.default_max_attempts = default_max_attempts
        self._pool = ConnectionPool(self.path)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        spec: Any,
        job_id: str,
        *,
        expand: bool = True,
        now: float | None = None,
    ) -> str:
        """Persist one job (idempotent on *job_id*); optionally its cells.

        Args:
            spec: the validated :class:`~repro.service.spec.JobSpec`.
            job_id: the service job id this fabric job mirrors.
            expand: also insert every (scheme × trace) cell now.  The
                service passes False: its :class:`FleetBackend` enqueues
                only the cells the engine dispatches (via
                :meth:`add_cells`).
        """
        now = time.time() if now is None else now
        with self._pool.transaction() as connection:
            connection.execute(
                "INSERT INTO jobs (id, spec, spec_hash, priority, state,"
                " created_at) VALUES (?, ?, ?, ?, 'pending', ?)"
                " ON CONFLICT (id) DO NOTHING",
                (
                    job_id,
                    json.dumps(spec.canonical(), sort_keys=True),
                    spec.spec_hash(),
                    spec.priority,
                    now,
                ),
            )
        if expand:
            self.add_cells(job_id, expand_spec(spec))
        return job_id

    def add_cells(self, job_id: str, cells: list[dict[str, Any]]) -> int:
        """Insert cell rows (idempotent on ``(job_id, idx)``); returns new rows."""
        inserted = 0
        with self._pool.transaction() as connection:
            for cell in cells:
                cursor = connection.execute(
                    "INSERT INTO cells (job_id, idx, scheme, scheme_key,"
                    " trace_spec, trace_label, sharer_key, priority,"
                    " max_attempts)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
                    " ON CONFLICT (job_id, idx) DO NOTHING",
                    (
                        job_id,
                        cell["idx"],
                        json.dumps(cell["scheme"], sort_keys=True),
                        cell["scheme_key"],
                        json.dumps(cell["trace_spec"], sort_keys=True),
                        cell["trace_label"],
                        cell["sharer_key"],
                        cell.get("priority", 0),
                        cell.get("max_attempts") or self.default_max_attempts,
                    ),
                )
                inserted += cursor.rowcount
        return inserted

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------

    def lease(
        self,
        worker_id: str,
        *,
        lease_s: float = 30.0,
        now: float | None = None,
    ) -> LeasedCell | None:
        """Claim the next ready cell for *worker_id*, or ``None``.

        Ready means ``pending`` with its retry-backoff gate
        (``not_before``) in the past.  Claiming bumps the cell's attempt
        counter — the counter counts *leases*, so crashed attempts are
        charged exactly like failed ones.
        """
        now = time.time() if now is None else now
        with self._pool.transaction() as connection:
            row = connection.execute(
                "SELECT * FROM cells WHERE state = 'pending' AND not_before <= ?"
                " ORDER BY priority DESC, id LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            deadline = now + lease_s
            connection.execute(
                "UPDATE cells SET state = 'leased', worker = ?,"
                " lease_deadline = ?, attempts = attempts + 1 WHERE id = ?",
                (worker_id, deadline, row["id"]),
            )
            connection.execute(
                "UPDATE jobs SET state = 'running'"
                " WHERE id = ? AND state = 'pending'",
                (row["job_id"],),
            )
            self._touch_worker(connection, worker_id, now)
            return LeasedCell(
                id=row["id"],
                job_id=row["job_id"],
                index=row["idx"],
                scheme=json.loads(row["scheme"]),
                scheme_key=row["scheme_key"],
                trace_spec=json.loads(row["trace_spec"]),
                trace_label=row["trace_label"],
                sharer_key=row["sharer_key"],
                attempts=row["attempts"] + 1,
                max_attempts=row["max_attempts"],
                lease_deadline=deadline,
            )

    def heartbeat(
        self,
        cell_id: int,
        worker_id: str,
        *,
        lease_s: float = 30.0,
        now: float | None = None,
    ) -> bool:
        """Renew the lease; False means the lease was lost (reassigned)."""
        now = time.time() if now is None else now
        with self._pool.transaction() as connection:
            cursor = connection.execute(
                "UPDATE cells SET lease_deadline = ?"
                " WHERE id = ? AND worker = ? AND state = 'leased'",
                (now + lease_s, cell_id, worker_id),
            )
            self._touch_worker(connection, worker_id, now)
            return cursor.rowcount == 1

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------

    def settle(
        self,
        cell_id: int,
        worker_id: str,
        payload: dict[str, Any],
        *,
        source: str = "simulated",
        now: float | None = None,
    ) -> bool:
        """Record a terminal outcome payload for one cell — idempotently.

        The ``INSERT ... ON CONFLICT DO NOTHING`` on the results table is
        the settlement point for reassignment races: the first settle
        wins, any later one (a presumed-dead worker finishing after all)
        returns False and bumps ``duplicate_completions``.  Valid work is
        never thrown away *and* never double-counted.

        Args:
            payload: the engine outcome payload (``status`` ok → the
                cell is ``done``; error → ``failed``, the permanent
                contained-failure state).
            source: how the outcome was obtained (``simulated`` or
                ``cache``); cache settles count as fleet dedup hits.
        """
        now = time.time() if now is None else now
        with self._pool.transaction() as connection:
            cursor = connection.execute(
                "INSERT INTO results (cell_id, worker, source, payload,"
                " completed_at) VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT (cell_id) DO NOTHING",
                (
                    cell_id,
                    worker_id,
                    source,
                    json.dumps(payload),
                    now,
                ),
            )
            if cursor.rowcount == 0:
                self._bump(connection, "duplicate_completions")
                return False
            state = DONE if payload.get("status") == "ok" else FAILED
            connection.execute(
                "UPDATE cells SET state = ?, worker = NULL,"
                " lease_deadline = NULL, last_category = ?, last_error = ?"
                " WHERE id = ?",
                (
                    state,
                    payload.get("category"),
                    payload.get("message"),
                    cell_id,
                ),
            )
            if source == "cache":
                self._bump(connection, "dedup_hits")
            connection.execute(
                "UPDATE workers SET cells_done = cells_done + 1,"
                " last_heartbeat = ? WHERE id = ?",
                (now, worker_id),
            )
            self._refresh_job(connection, cell_id=cell_id, now=now)
            return True

    def retry_cell(
        self,
        cell_id: int,
        worker_id: str,
        *,
        category: str,
        message: str,
        backoff_s: float = 0.0,
        now: float | None = None,
    ) -> str:
        """Requeue a transiently-failed cell (or dead-letter it).

        Returns the cell's new state: ``pending`` when the attempt
        budget allows another lease (gated ``backoff_s`` into the
        future), ``dead`` once ``max_attempts`` leases are burned, or
        the current state unchanged when this worker no longer holds
        the lease (a reap got there first).
        """
        now = time.time() if now is None else now
        with self._pool.transaction() as connection:
            row = connection.execute(
                "SELECT state, worker, attempts, max_attempts, job_id"
                " FROM cells WHERE id = ?",
                (cell_id,),
            ).fetchone()
            if row is None:
                raise ConfigurationError(f"unknown cell id {cell_id}")
            if row["state"] != LEASED or row["worker"] != worker_id:
                return row["state"]
            if row["attempts"] >= row["max_attempts"]:
                connection.execute(
                    "UPDATE cells SET state = 'dead', worker = NULL,"
                    " lease_deadline = NULL, last_category = ?,"
                    " last_error = ? WHERE id = ?",
                    (category, message, cell_id),
                )
                self._bump(connection, "dead_letters")
                self._refresh_job(connection, cell_id=cell_id, now=now)
                return DEAD
            connection.execute(
                "UPDATE cells SET state = 'pending', worker = NULL,"
                " lease_deadline = NULL, not_before = ?, last_category = ?,"
                " last_error = ? WHERE id = ?",
                (now + backoff_s, category, message, cell_id),
            )
            return PENDING

    # ------------------------------------------------------------------
    # Reaping
    # ------------------------------------------------------------------

    def reap(self, *, now: float | None = None) -> list[tuple[int, str]]:
        """Requeue (or dead-letter) every cell whose lease has expired.

        The expiry lives in the cell row, so any caller can act on it:
        every worker reaps before each lease, and a :class:`FleetBackend`
        reaps while a job's cells are outstanding (which is what
        dead-letters a cell when no worker is alive).  Transitions are
        guarded by cell state, so concurrent callers double-count
        nothing.

        Returns ``[(cell_id, new_state), ...]`` for the reaped cells.
        """
        now = time.time() if now is None else now
        reaped: list[tuple[int, str]] = []
        with self._pool.transaction() as connection:
            rows = connection.execute(
                "SELECT id, attempts, max_attempts, worker FROM cells"
                " WHERE state = 'leased' AND lease_deadline < ?",
                (now,),
            ).fetchall()
            for row in rows:
                self._bump(connection, "lease_expirations")
                message = (
                    f"lease expired (worker {row['worker']},"
                    f" attempt {row['attempts']}/{row['max_attempts']})"
                )
                if row["attempts"] >= row["max_attempts"]:
                    connection.execute(
                        "UPDATE cells SET state = 'dead', worker = NULL,"
                        " lease_deadline = NULL,"
                        " last_category = 'LeaseExpired', last_error = ?"
                        " WHERE id = ?",
                        (message, row["id"]),
                    )
                    self._bump(connection, "dead_letters")
                    self._refresh_job(connection, cell_id=row["id"], now=now)
                    reaped.append((row["id"], DEAD))
                else:
                    connection.execute(
                        "UPDATE cells SET state = 'pending', worker = NULL,"
                        " lease_deadline = NULL,"
                        " reassignments = reassignments + 1,"
                        " last_category = 'LeaseExpired', last_error = ?"
                        " WHERE id = ?",
                        (message, row["id"]),
                    )
                    self._bump(connection, "reassignments")
                    reaped.append((row["id"], PENDING))
        return reaped

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def register_worker(
        self, worker_id: str, *, pid: int | None = None, now: float | None = None
    ) -> None:
        """Record a worker joining the fleet (idempotent)."""
        now = time.time() if now is None else now
        with self._pool.transaction() as connection:
            connection.execute(
                "INSERT INTO workers (id, pid, host, first_seen,"
                " last_heartbeat) VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT (id) DO UPDATE SET last_heartbeat ="
                " excluded.last_heartbeat, pid = excluded.pid",
                (worker_id, pid or os.getpid(), socket.gethostname(), now, now),
            )

    def _touch_worker(self, connection, worker_id: str, now: float) -> None:
        connection.execute(
            "UPDATE workers SET last_heartbeat = ? WHERE id = ?",
            (now, worker_id),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def _refresh_job(self, connection, *, cell_id: int, now: float) -> None:
        """Flip the owning job terminal once its last cell settles."""
        job_id = connection.execute(
            "SELECT job_id FROM cells WHERE id = ?", (cell_id,)
        ).fetchone()["job_id"]
        unfinished = connection.execute(
            "SELECT COUNT(*) AS n FROM cells WHERE job_id = ?"
            " AND state NOT IN ('done', 'failed', 'dead')",
            (job_id,),
        ).fetchone()["n"]
        if unfinished:
            return
        bad = connection.execute(
            "SELECT COUNT(*) AS n FROM cells WHERE job_id = ?"
            " AND state IN ('failed', 'dead')",
            (job_id,),
        ).fetchone()["n"]
        connection.execute(
            "UPDATE jobs SET state = ?, finished_at = ? WHERE id = ?",
            ("failed" if bad else "done", now, job_id),
        )

    def finish_job(
        self, job_id: str, state: str = "done", *, now: float | None = None
    ) -> None:
        """Force one job terminal (used when its cells never reached the
        fabric — e.g. every cell resolved from cache or checkpoint)."""
        now = time.time() if now is None else now
        with self._pool.transaction() as connection:
            connection.execute(
                "UPDATE jobs SET state = ?, finished_at = ?"
                " WHERE id = ? AND state NOT IN ('done', 'failed')",
                (state, now, job_id),
            )

    def job_state(self, job_id: str) -> str | None:
        row = self._pool.execute(
            "SELECT state FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return None if row is None else row["state"]

    def pending_jobs(self) -> list[dict[str, Any]]:
        """Unfinished persisted jobs (spec JSON included), oldest first."""
        rows = self._pool.execute(
            "SELECT id, spec, state FROM jobs"
            " WHERE state NOT IN ('done', 'failed') ORDER BY created_at"
        ).fetchall()
        return [
            {"id": row["id"], "spec": json.loads(row["spec"]), "state": row["state"]}
            for row in rows
        ]

    def cell_outcomes(self, job_id: str) -> list[dict[str, Any]]:
        """Every cell of one job with its settled payload (if any)."""
        rows = self._pool.execute(
            "SELECT c.id, c.idx, c.scheme_key, c.trace_label, c.state,"
            " c.attempts, c.last_category, c.last_error,"
            " r.payload, r.source"
            " FROM cells c LEFT JOIN results r ON r.cell_id = c.id"
            " WHERE c.job_id = ? ORDER BY c.idx",
            (job_id,),
        ).fetchall()
        outcomes = []
        for row in rows:
            outcomes.append(
                {
                    "cell_id": row["id"],
                    "index": row["idx"],
                    "scheme_key": row["scheme_key"],
                    "trace_label": row["trace_label"],
                    "state": row["state"],
                    "attempts": row["attempts"],
                    "last_category": row["last_category"],
                    "last_error": row["last_error"],
                    "payload": json.loads(row["payload"]) if row["payload"] else None,
                    "source": row["source"],
                }
            )
        return outcomes

    def assemble(self, job_id: str) -> dict[str, Any]:
        """One job's sweep outcome in the engine's results/failures shape.

        ``results[scheme_key][trace_label]`` holds the settled result
        JSON in sweep order — directly comparable (canonical JSON,
        sorted keys) with a serial engine run's serialized results,
        which is how the chaos harness proves bit-for-bit parity.
        """
        results: dict[str, dict[str, Any]] = {}
        failures: list[dict[str, Any]] = []
        for outcome in self.cell_outcomes(job_id):
            payload = outcome["payload"]
            if outcome["state"] == DONE and payload is not None:
                results.setdefault(outcome["scheme_key"], {})[
                    outcome["trace_label"]
                ] = payload["result"]
            elif outcome["state"] in (FAILED, DEAD):
                failures.append(
                    {
                        "scheme": outcome["scheme_key"],
                        "trace_name": outcome["trace_label"],
                        "state": outcome["state"],
                        "category": (payload or {}).get("category")
                        or outcome["last_category"],
                        "message": (payload or {}).get("message")
                        or outcome["last_error"],
                        "attempts": outcome["attempts"],
                    }
                )
        return {"results": results, "failures": failures}

    def dead_letters(self) -> list[dict[str, Any]]:
        """The DLQ: every cell that burned through its attempt budget."""
        rows = self._pool.execute(
            "SELECT c.job_id, c.idx, c.scheme_key, c.trace_label, c.attempts,"
            " c.max_attempts, c.reassignments, c.last_category, c.last_error"
            " FROM cells c WHERE c.state = 'dead' ORDER BY c.job_id, c.idx"
        ).fetchall()
        return [dict(row) for row in rows]

    def unfinished_cells(self) -> int:
        """Cells not yet terminal, queue-wide (the fleet-drain predicate)."""
        return self._pool.execute(
            "SELECT COUNT(*) AS n FROM cells"
            " WHERE state NOT IN ('done', 'failed', 'dead')"
        ).fetchone()["n"]

    def counters(self) -> dict[str, int]:
        rows = self._pool.execute("SELECT name, value FROM counters").fetchall()
        return {row["name"]: row["value"] for row in rows}

    def stats(self, *, now: float | None = None) -> dict[str, Any]:
        """Fleet-wide accounting — the ``/stats`` ``fabric`` section."""
        now = time.time() if now is None else now
        cells = {state: 0 for state in CELL_STATES}
        for row in self._pool.execute(
            "SELECT state, COUNT(*) AS n FROM cells GROUP BY state"
        ):
            cells[row["state"]] = row["n"]
        jobs: dict[str, int] = {}
        for row in self._pool.execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ):
            jobs[row["state"]] = row["n"]
        workers_seen = self._pool.execute(
            "SELECT COUNT(*) AS n FROM workers"
        ).fetchone()["n"]
        workers_live = self._pool.execute(
            "SELECT COUNT(*) AS n FROM workers WHERE last_heartbeat >= ?",
            (now - 60.0,),
        ).fetchone()["n"]
        sources: dict[str, int] = {}
        for row in self._pool.execute(
            "SELECT source, COUNT(*) AS n FROM results GROUP BY source"
        ):
            sources[row["source"]] = row["n"]
        counters = self.counters()
        return {
            "db": str(self.path),
            "jobs": jobs,
            "cells": cells,
            "live_leases": cells[LEASED],
            "workers_seen": workers_seen,
            "workers_live": workers_live,
            "settled_by_source": sources,
            "lease_expirations": counters.get("lease_expirations", 0),
            "reassignments": counters.get("reassignments", 0),
            "dead_letters": counters.get("dead_letters", 0),
            "duplicate_completions": counters.get("duplicate_completions", 0),
            "dedup_hits": counters.get("dedup_hits", 0),
        }

    # ------------------------------------------------------------------

    @staticmethod
    def _bump(connection, name: str, amount: int = 1) -> None:
        connection.execute(
            "INSERT INTO counters (name, value) VALUES (?, ?)"
            " ON CONFLICT (name) DO UPDATE SET value = value + excluded.value",
            (name, amount),
        )

    def close(self) -> None:
        """Close this thread's database connection."""
        self._pool.close()
