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


class ResultCache:
    """One directory of content-addressed simulation results.

    Args:
        directory: cache location; created if missing.  Safe to share
            between sweeps — keys collide only for identical cells.
    """

    #: Subdirectory corrupt entries are moved into (never re-read).
    QUARANTINE_DIR = "quarantine"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

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
        payload = self.get_json(key)
        if payload is None:
            return None
        try:
            return result_from_json(payload)
        except Exception:
            # Valid JSON that is not a result payload: same treatment
            # as any other corrupt entry.
            self.hits -= 1
            self.misses += 1
            self._quarantine(self._path_for(key))
            return None

    def get_json(self, key: str) -> dict[str, Any] | None:
        """The cached *serialized* result for *key*, or ``None`` on a miss.

        The JSON-level twin of :meth:`get`, for callers that transport
        payloads rather than live results (fabric workers, the service)
        — it skips the deserialize/reserialize round trip entirely.
        """
        path = self._path_for(key)
        try:
            payload = json.loads(path.read_text("utf-8"))
            result_json = payload["result"]
            if payload.get("version") != CACHE_VERSION:
                raise CheckpointError("cache entry version mismatch")
            if not isinstance(result_json, dict):
                raise CheckpointError("cache entry result is not an object")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, KeyError, TypeError, CheckpointError):
            # A corrupt/truncated entry is a miss: quarantine it and let
            # the caller re-simulate (the slot is free to be rewritten).
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return result_json

    def put(self, key: str, result: SimulationResult) -> None:
        """Store *result* under *key* (atomic; best-effort on I/O errors)."""
        self.put_json(key, result_to_json(result))

    def put_json(self, key: str, result_json: dict[str, Any]) -> None:
        """Store an already-serialized result payload under *key*."""
        payload = json.dumps(
            {"version": CACHE_VERSION, "key": key, "result": result_json},
            indent=1,
            sort_keys=True,
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
