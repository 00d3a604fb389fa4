"""SQLite plumbing for the durable sweep fabric.

One database file, WAL journal, accessed by many processes and threads
at once.  The rules that keep that safe live here so the queue logic in
:mod:`repro.fabric.queue` can stay purely about states:

* every connection gets WAL mode, ``synchronous=NORMAL`` (a torn WAL
  tail rolls back to the last commit — never a corrupt database), a
  busy timeout, and foreign keys;
* connections are **per thread** (:class:`ConnectionPool` hands each
  thread its own handle, since sqlite3 objects must not cross threads);
* every mutation runs inside ``BEGIN IMMEDIATE`` via
  :meth:`ConnectionPool.transaction`, which also retries the handful of
  lock errors WAL can still produce under heavy multi-writer load.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Iterator

from contextlib import contextmanager

#: Seconds sqlite itself waits on a locked database before raising.
BUSY_TIMEOUT_S = 10.0

#: Attempts made by :meth:`ConnectionPool.transaction` on lock errors.
LOCK_RETRIES = 8

SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id         TEXT PRIMARY KEY,
    spec       TEXT NOT NULL,      -- canonical JSON job spec
    spec_hash  TEXT NOT NULL,
    priority   INTEGER NOT NULL DEFAULT 0,
    state      TEXT NOT NULL DEFAULT 'pending',
    created_at REAL NOT NULL,
    finished_at REAL
);

CREATE TABLE IF NOT EXISTS cells (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id         TEXT NOT NULL REFERENCES jobs(id),
    idx            INTEGER NOT NULL,  -- position in sweep order
    scheme         TEXT NOT NULL,     -- canonical {"name", "options"} JSON
    scheme_key     TEXT NOT NULL,
    trace_spec     TEXT NOT NULL,     -- canonical TraceSpec JSON
    trace_label    TEXT NOT NULL,
    sharer_key     TEXT NOT NULL,
    priority       INTEGER NOT NULL DEFAULT 0,
    state          TEXT NOT NULL DEFAULT 'pending',
    attempts       INTEGER NOT NULL DEFAULT 0,
    max_attempts   INTEGER NOT NULL DEFAULT 3,
    worker         TEXT,              -- current lease owner
    lease_deadline REAL,              -- unix time the lease expires
    not_before     REAL NOT NULL DEFAULT 0,  -- retry backoff gate
    reassignments  INTEGER NOT NULL DEFAULT 0,
    last_category  TEXT,
    last_error     TEXT,
    UNIQUE (job_id, idx)
);
CREATE INDEX IF NOT EXISTS cells_by_state ON cells (state, priority, id);
CREATE INDEX IF NOT EXISTS cells_by_job ON cells (job_id, state);

-- One row per settled cell; the PRIMARY KEY is what makes completion
-- idempotent (INSERT ... ON CONFLICT DO NOTHING settles races).
CREATE TABLE IF NOT EXISTS results (
    cell_id      INTEGER PRIMARY KEY REFERENCES cells(id),
    worker       TEXT,
    source       TEXT NOT NULL DEFAULT 'simulated',
    payload      TEXT NOT NULL,     -- engine outcome payload JSON
    completed_at REAL NOT NULL
);

CREATE TABLE IF NOT EXISTS workers (
    id             TEXT PRIMARY KEY,
    pid            INTEGER,
    host           TEXT,
    first_seen     REAL NOT NULL,
    last_heartbeat REAL NOT NULL,
    cells_done     INTEGER NOT NULL DEFAULT 0
);

CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL DEFAULT 0
);
"""


def connect(path: str | Path) -> sqlite3.Connection:
    """Open one fabric connection with the standard pragmas applied."""
    connection = sqlite3.connect(
        str(path),
        timeout=BUSY_TIMEOUT_S,
        isolation_level=None,  # autocommit; transactions are explicit
    )
    connection.row_factory = sqlite3.Row
    connection.execute("PRAGMA journal_mode=WAL")
    connection.execute("PRAGMA synchronous=NORMAL")
    connection.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
    connection.execute("PRAGMA foreign_keys=ON")
    return connection


def ensure_schema(connection: sqlite3.Connection) -> None:
    """Create the fabric tables if this is a fresh database file."""
    connection.executescript(SCHEMA)


def _is_lock_error(exc: sqlite3.OperationalError) -> bool:
    message = str(exc).lower()
    return "locked" in message or "busy" in message


class ConnectionPool:
    """Per-thread connections to one fabric database file.

    sqlite3 connection objects are bound to their creating thread, but
    the scheduler (and tests) call queue methods from several threads.
    The pool lazily opens one connection per thread and reuses it.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        ensure_schema(self._connection())

    def _connection(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = connect(self.path)
            self._local.connection = connection
        return connection

    def execute(self, sql: str, parameters: tuple = ()) -> sqlite3.Cursor:
        """Run one read-only statement on this thread's connection."""
        return self._connection().execute(sql, parameters)

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """``BEGIN IMMEDIATE`` … ``COMMIT`` with lock-error retry.

        IMMEDIATE takes the write lock up front, so every read inside
        the block sees a consistent snapshot that cannot be invalidated
        by a concurrent writer — the property the lease state machine
        relies on (check state, then flip it, atomically).
        """
        connection = self._connection()
        last: sqlite3.OperationalError | None = None
        for attempt in range(LOCK_RETRIES):
            try:
                connection.execute("BEGIN IMMEDIATE")
            except sqlite3.OperationalError as exc:
                if not _is_lock_error(exc):
                    raise
                last = exc
                time.sleep(min(0.05 * (attempt + 1), 0.5))
                continue
            try:
                yield connection
            except BaseException:
                connection.execute("ROLLBACK")
                raise
            else:
                connection.execute("COMMIT")
                return
        raise last if last is not None else sqlite3.OperationalError(
            "could not acquire the fabric write lock"
        )

    def close(self) -> None:
        """Close this thread's connection (other threads close their own)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None
