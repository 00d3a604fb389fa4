"""Checkpoint/resume for long sweeps.

A checkpoint is a directory holding two artifacts:

* ``manifest.json`` — a versioned JSON snapshot of every *completed*
  (scheme, trace) cell (full :class:`SimulationResult` payloads) plus
  recorded cell failures and an experiment fingerprint.  Human-readable
  and diff-able.
* ``cell.pkl`` — a binary snapshot of the single *in-progress* cell:
  the live protocol instance, the
  :class:`~repro.core.simulator.SimulationContext` (seen blocks, sharer
  map, record position) and the accumulated partial
  :class:`SimulationResult`, so a resumed run continues mid-trace
  rather than restarting the cell.

Both artifacts carry a magic string and format version; loading
anything that fails the compatibility check raises
:class:`~repro.errors.CheckpointError` rather than silently mixing
state from a different run.  All writes are atomic
(write-temp-then-rename), so a crash mid-save leaves the previous
snapshot intact.
"""

from __future__ import annotations

import json
import os
import pickle
from collections import Counter
from pathlib import Path
from typing import Any

from repro.core.result import SimulationResult
from repro.errors import CheckpointError
from repro.protocols.events import EventType, OpKind

MANIFEST_MAGIC = "repro-checkpoint"
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"

CELL_STATE_MAGIC = b"RPCK"
CELL_STATE_VERSION = 1
CELL_STATE_NAME = "cell.pkl"


# ----------------------------------------------------------------------
# SimulationResult <-> JSON
# ----------------------------------------------------------------------

def result_to_json(result: SimulationResult) -> dict[str, Any]:
    """Encode a :class:`SimulationResult` as a JSON-safe dict (exact).

    ``directory_recalls`` is only emitted when nonzero so payloads from
    infinite-cache runs — and their cache keys/digests — are unchanged
    by the finite-capacity extension.
    """
    payload = {
        "scheme": result.scheme,
        "trace_name": result.trace_name,
        "total_refs": result.total_refs,
        "event_counts": {
            event.value: count for event, count in result.event_counts.items()
        },
        "op_units": {
            event.value: {kind.value: units for kind, units in counter.items()}
            for event, counter in result.op_units.items()
        },
        "bus_transactions": result.bus_transactions,
        "clean_write_histogram": {
            str(sharers): count
            for sharers, count in result.clean_write_histogram.items()
        },
        "wasted_invalidations": result.wasted_invalidations,
        "pointer_evictions": result.pointer_evictions,
    }
    if result.directory_recalls:
        payload["directory_recalls"] = result.directory_recalls
    return payload


def result_from_json(payload: dict[str, Any]) -> SimulationResult:
    """Decode :func:`result_to_json` output, bit-for-bit."""
    try:
        return SimulationResult(
            scheme=payload["scheme"],
            trace_name=payload["trace_name"],
            total_refs=payload["total_refs"],
            event_counts=Counter(
                {
                    EventType(event): count
                    for event, count in payload["event_counts"].items()
                }
            ),
            op_units={
                EventType(event): Counter(
                    {OpKind(kind): units for kind, units in counter.items()}
                )
                for event, counter in payload["op_units"].items()
            },
            bus_transactions=payload["bus_transactions"],
            clean_write_histogram=Counter(
                {
                    int(sharers): count
                    for sharers, count in payload["clean_write_histogram"].items()
                }
            ),
            wasted_invalidations=payload["wasted_invalidations"],
            pointer_evictions=payload["pointer_evictions"],
            directory_recalls=payload.get("directory_recalls", 0),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointError(f"corrupt SimulationResult payload: {exc}") from exc


# ----------------------------------------------------------------------
# Checkpoint directory
# ----------------------------------------------------------------------

def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class CheckpointManager:
    """Owns one checkpoint directory for one sweep.

    Args:
        directory: checkpoint location; created if missing.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.directory / MANIFEST_NAME
        self._cell_path = self.directory / CELL_STATE_NAME

    def exists(self) -> bool:
        """True when a manifest has been written to this directory."""
        return self._manifest_path.is_file()

    # -- manifest ------------------------------------------------------

    def new_manifest(self, fingerprint: dict[str, Any]) -> dict[str, Any]:
        """A fresh, empty manifest for the given experiment fingerprint."""
        return {
            "magic": MANIFEST_MAGIC,
            "version": MANIFEST_VERSION,
            "fingerprint": fingerprint,
            "completed": {},
            "failures": [],
        }

    def save_manifest(self, manifest: dict[str, Any]) -> None:
        """Atomically persist the manifest.

        Unsorted, like a cache entry: a restored result keeps its
        ``op_units`` order and so sums its cycles exactly as it did fresh.
        """
        payload = json.dumps(manifest, indent=1)
        _atomic_write_bytes(self._manifest_path, payload.encode("utf-8"))

    def load_manifest(self, fingerprint: dict[str, Any] | None = None) -> dict[str, Any]:
        """Load and validate the manifest.

        Args:
            fingerprint: when given, the stored experiment fingerprint
                must match exactly (same schemes, same traces); a sweep
                must never resume from another sweep's checkpoint.
        """
        if not self.exists():
            raise CheckpointError(f"no checkpoint manifest in {self.directory}")
        try:
            manifest = json.loads(self._manifest_path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint manifest: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("magic") != MANIFEST_MAGIC:
            raise CheckpointError(
                f"{self._manifest_path} is not a repro checkpoint manifest"
            )
        if manifest.get("version") != MANIFEST_VERSION:
            raise CheckpointError(
                f"checkpoint manifest version {manifest.get('version')!r} is not "
                f"supported (expected {MANIFEST_VERSION})"
            )
        if fingerprint is not None and manifest.get("fingerprint") != fingerprint:
            raise CheckpointError(
                "checkpoint belongs to a different experiment: "
                f"stored fingerprint {manifest.get('fingerprint')!r} != "
                f"requested {fingerprint!r}"
            )
        return manifest

    # -- in-progress cell state ----------------------------------------

    def save_cell_state(self, state: dict[str, Any]) -> None:
        """Atomically snapshot the in-progress cell (binary, versioned)."""
        blob = (
            CELL_STATE_MAGIC
            + bytes([CELL_STATE_VERSION])
            + pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        )
        _atomic_write_bytes(self._cell_path, blob)

    def load_cell_state(self) -> dict[str, Any] | None:
        """The in-progress cell snapshot, or None when no cell was cut short."""
        if not self._cell_path.is_file():
            return None
        blob = self._cell_path.read_bytes()
        if len(blob) < len(CELL_STATE_MAGIC) + 1 or not blob.startswith(CELL_STATE_MAGIC):
            raise CheckpointError(
                f"{self._cell_path} is not a repro cell snapshot (bad magic)"
            )
        version = blob[len(CELL_STATE_MAGIC)]
        if version != CELL_STATE_VERSION:
            raise CheckpointError(
                f"cell snapshot version {version} is not supported "
                f"(expected {CELL_STATE_VERSION})"
            )
        try:
            state = pickle.loads(blob[len(CELL_STATE_MAGIC) + 1 :])
        except Exception as exc:  # pickle raises a wide variety here
            raise CheckpointError(f"corrupt cell snapshot: {exc}") from exc
        if not isinstance(state, dict):
            raise CheckpointError("corrupt cell snapshot: payload is not a dict")
        return state

    def clear_cell_state(self) -> None:
        """Drop the in-progress snapshot (the cell completed or failed)."""
        try:
            self._cell_path.unlink()
        except FileNotFoundError:
            pass
