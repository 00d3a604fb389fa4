"""On-disk result cache: skip cells whose outcome is already known.

A sweep cell is fully determined by *what* is simulated — the trace
content, the scheme and its options, and the simulator configuration
(sharer key, block size) — not by trace file names or in-memory
representation.  :class:`ResultCache` therefore keys each stored
:class:`~repro.core.result.SimulationResult` by a SHA-256 over exactly
those inputs:

* the **trace fingerprint** (:func:`trace_fingerprint`) hashes one
  canonical line per record, so a record-backed
  :class:`~repro.trace.stream.Trace` and its
  :class:`~repro.trace.columnar.ColumnarTrace` conversion — or the same
  trace loaded from text and binary files — fingerprint identically,
  while any changed record invalidates the key;
* the **scheme** is the registry name plus its canonical (key-sorted
  JSON) option dict; protocol *factories* are opaque callables with no
  content identity, so factory cells are never cached;
* the **simulator configuration** contributes the sharer key and block
  size, the two knobs that change measured results.

Entries are the same JSON payloads the checkpoint manifest uses
(:func:`~repro.runner.checkpoint.result_to_json`), written atomically.
A corrupt or truncated entry is treated as a miss, never an error — the
cell re-simulates and the bad file is *quarantined* (moved into a
``quarantine/`` subdirectory, preserved for inspection rather than
silently deleted).  The cache can only skip work, not break a sweep.

Engines that share a cache in one process also share its
:class:`InFlightTable` (the first claimant of a key computes the cell,
later claimants wait for its outcome) and its :class:`FingerprintMemo`
(a repeated trace spec finds its cached cells without being built).
A fabric fleet member is the exception: it runs the cells a job engine
has claimed, so its copy of the cache has a table of its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any

from repro.core.experiment import parse_scheme
from repro.core.result import SimulationResult
from repro.core.simulator import Simulator
from repro.errors import CheckpointError
from repro.runner.checkpoint import result_from_json, result_to_json
from repro.store.format import is_chunked_trace
from repro.trace.fingerprint import FP_HEADER as _FP_HEADER  # noqa: F401
from repro.trace.fingerprint import fingerprint_trace

#: Bump when the cached payload or key material changes incompatibly.
CACHE_VERSION = 1


def trace_fingerprint(trace: Any) -> str:
    """Content hash of a trace, independent of its representation.

    Hashes one canonical ``cpu pid type address flags`` line per record
    in order.  The trace's name and description are deliberately
    excluded: two differently-named traces with identical records are
    the same workload.  Delegates to the incremental
    :class:`~repro.trace.fingerprint.TraceHasher`, which record,
    columnar, and chunked representations all feed identically — the
    digests are byte-compatible with every previously written cache.
    """
    return fingerprint_trace(trace)


def cache_key(
    scheme_spec: Any, simulator: Simulator, trace_fp: str
) -> str | None:
    """The cache key for one cell, or ``None`` when it is uncacheable.

    Factory scheme specs (arbitrary callables) and option dicts that are
    not JSON-serializable have no stable content identity and return
    ``None`` — such cells always simulate.
    """
    if callable(scheme_spec) and not isinstance(scheme_spec, (str, tuple)):
        return None
    name, options = parse_scheme(scheme_spec)
    try:
        canonical_options = json.dumps(options, sort_keys=True)
    except (TypeError, ValueError):
        return None
    material = json.dumps(
        {
            "version": CACHE_VERSION,
            "scheme": name,
            "options": canonical_options,
            "sharer_key": simulator.sharer_key,
            "block_bytes": simulator.block_mapper.block_bytes,
            "trace": trace_fp,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class InFlightCell:
    """One cell being computed; waiters block until resolve/abandon."""

    def __init__(self, key: str) -> None:
        self.key = key
        self.outcome: dict[str, Any] | None = None
        self.abandoned = False
        self._event = threading.Event()

    def resolve(self, outcome: dict[str, Any]) -> None:
        """Publish the owner's outcome payload and wake waiters."""
        self.outcome = outcome
        self._event.set()

    def abandon(self) -> None:
        """The owner gave up without an outcome; wake waiters empty-handed."""
        self.abandoned = True
        self._event.set()

    def wait(self, timeout: float | None = None) -> bool:
        """True once resolved or abandoned."""
        return self._event.wait(timeout)


class InFlightTable:
    """The shared key → :class:`InFlightCell` registry.

    Ownership can be *abandoned* (the owner was stopped before computing
    the cell).  Waiters then wake empty-handed and resolve the cell
    again, typically becoming its owner, so a stopped sweep never
    strands another sweep's cells.
    """

    def __init__(self) -> None:
        self._cells: dict[str, InFlightCell] = {}
        self._lock = threading.Lock()

    def claim(self, key: str) -> tuple[InFlightCell, bool]:
        """Claim *key*; returns ``(entry, is_owner)``.

        The first claimant becomes the owner (and must later
        ``resolve_and_release`` or ``abandon_and_release`` the entry);
        later claimants get the same entry with ``is_owner=False`` and
        should :meth:`InFlightCell.wait` on it.
        """
        with self._lock:
            entry = self._cells.get(key)
            if entry is not None and not entry.abandoned:
                return entry, False
            entry = InFlightCell(key)
            self._cells[key] = entry
            return entry, True

    def _release(self, entry: InFlightCell) -> None:
        with self._lock:
            if self._cells.get(entry.key) is entry:
                del self._cells[entry.key]

    def resolve_and_release(self, entry: InFlightCell, outcome: dict[str, Any]) -> None:
        """Publish *outcome* and retire the entry from the table."""
        entry.resolve(outcome)
        self._release(entry)

    def abandon_and_release(self, entry: InFlightCell) -> None:
        """Retire the entry without an outcome (owner was stopped)."""
        entry.abandon()
        self._release(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)


class FingerprintMemo:
    """A bounded memo from trace spec to ``(trace name, fingerprint)``.

    The only trace state a long-lived cache user keeps between sweeps.
    Every engine reaches it through its result cache
    (``cache.fingerprints``) — a service job's and an in-process fleet
    member's alike — so they follow one rule and share what either
    computed:

    * workload specs are keyed by their canonical spec (generation is
      deterministic);
    * chunked ``.ctrc`` stores are keyed by ``(path, mtime_ns, size)``,
      so a rewrite is re-fingerprinted but an unchanged multi-gigabyte
      store is not re-hashed per sweep;
    * other trace files are never memoized: their content can change
      between sweeps, so each lookup re-reads them.

    Traces themselves are never kept: a hit returns no trace, and the
    caller builds one only when a cell must actually simulate.
    """

    #: Entries kept; the oldest is evicted first.
    CAPACITY = 1024

    def __init__(self) -> None:
        self._entries: dict[str, tuple[str, str]] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key(tspec: Any) -> str | None:
        if tspec.path is None:
            return json.dumps(tspec.canonical(), sort_keys=True)
        if not is_chunked_trace(tspec.path):
            return None
        stat = os.stat(tspec.path)
        return json.dumps([tspec.path, stat.st_mtime_ns, stat.st_size])

    def lookup(self, tspec: Any) -> tuple[str, str, Any]:
        """``(name, fingerprint, trace)``; *trace* is None on a memo hit.

        *tspec* is a :class:`~repro.service.spec.TraceSpec`.  Raises
        whatever building or fingerprinting the trace raises.
        """
        key = self._key(tspec)
        with self._lock:
            entry = self._entries.get(key) if key is not None else None
        if entry is not None:
            return entry[0], entry[1], None
        trace = tspec.build()
        entry = (trace.name, trace_fingerprint(trace))
        if key is not None:
            with self._lock:
                if len(self._entries) >= self.CAPACITY:
                    self._entries.pop(next(iter(self._entries)))
                self._entries[key] = entry
        return entry[0], entry[1], trace


class ResultCache:
    """One directory of content-addressed simulation results.

    Args:
        directory: cache location; created if missing.  Safe to share
            between sweeps — keys collide only for identical cells.

    Attributes:
        inflight: the cells being computed by sweeps sharing this cache.
        fingerprints: trace spec → (name, fingerprint) for those sweeps.
    """

    #: Subdirectory corrupt entries are moved into (never re-read).
    QUARANTINE_DIR = "quarantine"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.inflight = InFlightTable()
        self.fingerprints = FingerprintMemo()

    def _path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it is preserved but never re-read."""
        self.quarantined += 1
        quarantine = self.directory / self.QUARANTINE_DIR
        try:
            quarantine.mkdir(exist_ok=True)
            os.replace(path, quarantine / path.name)
        except OSError:
            # Could not move it (permissions, races): drop it instead so
            # the slot is rewritable; a lingering corrupt file is still
            # only ever a miss.
            try:
                path.unlink()
            except OSError:
                pass

    def get(self, key: str) -> SimulationResult | None:
        """The cached result for *key*, or ``None`` on any kind of miss."""
        path = self._path_for(key)
        try:
            payload = json.loads(path.read_text("utf-8"))
            if payload.get("version") != CACHE_VERSION:
                raise CheckpointError("cache entry version mismatch")
            result = result_from_json(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # A corrupt/truncated entry, or valid JSON that is not a
            # result payload, is a miss: quarantine it and let the
            # caller re-simulate (the slot is free to be rewritten).
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store *result* under *key* (atomic; best-effort on I/O errors)."""
        self.put_json(key, result_to_json(result))

    def put_json(self, key: str, result_json: dict[str, Any]) -> None:
        """Store an already-serialized result payload under *key*.

        Keys keep their insertion order: a result's cost floats are
        summed in ``op_units`` order, so a re-sorted entry could read
        back a different last digit than the fresh result.
        """
        payload = json.dumps(
            {"version": CACHE_VERSION, "key": key, "result": result_json},
            indent=1,
        )
        path = self._path_for(key)
        # Unique per writer: service threads, or a fabric worker and its
        # reassigned twin, can put the same key concurrently, and a
        # shared tmp name would let one truncate the other's file.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            tmp.write_text(payload, "utf-8")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
