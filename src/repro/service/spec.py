"""Job specifications: the wire format a sweep request travels in.

A job spec is a plain JSON object describing one (scheme × trace)
sweep::

    {
      "schemes": ["dir0b", {"name": "dirinb", "options": {"num_pointers": 2}}],
      "traces":  [{"workload": "pops", "length": 2000, "seed": 7},
                  {"path": "traces/pero.bin"}],
      "sharer_key": "pid",
      "priority": 0,
      "dedup": false,
      "tags": {"study": "bus-discipline"}
    }

:func:`parse_job_spec` validates the shape eagerly — unknown schemes and
workloads are rejected at submission time with
:class:`~repro.errors.JobSpecError`, not discovered mid-sweep — and the
parsed :class:`JobSpec` canonicalizes to a stable JSON string whose
SHA-256 (:meth:`JobSpec.spec_hash`) is the identity the queue uses for
job-level dedup.  Trace *content* identity (used for cell-level
coalescing and the result cache) is separate and computed from the
built trace, so two specs naming the same file differently still
coalesce per cell; the result cache's
:class:`~repro.runner.cache.FingerprintMemo` remembers it between jobs.

Validation uses the same registries the CLI exposes via
``repro list --json``, so a remote client can pre-validate names from
that machine-readable listing without importing this package.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.core.experiment import scheme_key
from repro.errors import JobSpecError
from repro.protocols.registry import available_protocols
from repro.trace.stream import Trace
from repro.workloads.registry import DEFAULT_LENGTH, known_workloads, make_any_trace

_SHARER_KEYS = ("pid", "cpu")


@dataclass(frozen=True)
class TraceSpec:
    """One trace input: either a named workload or a trace file path."""

    workload: str | None = None
    path: str | None = None
    length: int = DEFAULT_LENGTH
    seed: int | None = None

    def canonical(self) -> dict[str, Any]:
        """JSON-safe dict with a stable field order (for hashing)."""
        if self.path is not None:
            return {"path": self.path}
        return {"workload": self.workload, "length": self.length, "seed": self.seed}

    @property
    def label(self) -> str:
        """The name cells are filed under before the trace is built."""
        return self.workload or os.path.basename(self.path or "?")

    def build(self) -> Trace:
        """Materialize the trace (generate the workload or load the file)."""
        if self.path is not None:
            from repro.trace.io import load_trace

            # A missing file cannot be built: say so here, as a build
            # error, not as an I/O error mid-simulation.
            os.stat(self.path)
            return load_trace(self.path, lazy=True)
        return make_any_trace(self.workload, length=self.length, seed=self.seed)


@dataclass(frozen=True)
class JobSpec:
    """A validated sweep request.

    Attributes:
        schemes: ``(name, options)`` pairs in sweep order.
        traces: the trace inputs, in sweep order.
        sharer_key: ``"pid"`` or ``"cpu"`` (simulator configuration).
        priority: larger runs earlier; ties run in submission order.
        dedup: when True, submitting a spec identical to a queued or
            running job returns that job instead of enqueueing a copy.
        tags: caller-supplied labels, echoed back verbatim (and part of
            the spec identity, so differently-tagged jobs never dedup).
        max_attempts: fabric-mode lease budget per cell before it
            dead-letters; ``None`` defers to the fleet's default.
    """

    schemes: tuple[tuple[str, tuple[tuple[str, Any], ...]], ...]
    traces: tuple[TraceSpec, ...]
    sharer_key: str = "pid"
    priority: int = 0
    dedup: bool = False
    tags: tuple[tuple[str, Any], ...] = field(default_factory=tuple)
    max_attempts: int | None = None

    # -- identity ------------------------------------------------------

    def canonical(self) -> dict[str, Any]:
        """The spec as a JSON-safe dict with stable ordering.

        ``max_attempts`` appears only when set, so specs that never
        mention it hash exactly as they did before the field existed.
        """
        body = {
            "schemes": [
                {"name": name, "options": dict(options)}
                for name, options in self.schemes
            ],
            "traces": [trace.canonical() for trace in self.traces],
            "sharer_key": self.sharer_key,
            "priority": self.priority,
            "dedup": self.dedup,
            "tags": dict(self.tags),
        }
        if self.max_attempts is not None:
            body["max_attempts"] = self.max_attempts
        return body

    def spec_hash(self) -> str:
        """SHA-256 of the canonical JSON — the queue's dedup identity."""
        payload = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- sweep shape ---------------------------------------------------

    def scheme_specs(self) -> list[str | tuple[str, dict[str, Any]]]:
        """Scheme specs in the form the runner layer consumes."""
        return [
            name if not options else (name, dict(options))
            for name, options in self.schemes
        ]

    def scheme_keys(self) -> list[str]:
        """Result keys, in sweep order (``dir2nb`` for 2-pointer DiriNB)."""
        return [scheme_key(name, dict(options)) for name, options in self.schemes]

    def cell_count(self) -> int:
        """Cells in the sweep grid."""
        return len(self.schemes) * len(self.traces)


def _parse_scheme_entry(entry: Any, protocols: list[str]) -> tuple[str, tuple]:
    if isinstance(entry, str):
        name, options = entry, {}
        if "@" in entry:
            # "dir0b@1024x4" — finite geometry as a scheme suffix.
            from repro.memory.geometry import parse_geometry

            name, _, geometry = entry.partition("@")
            try:
                options = {"geometry": parse_geometry(geometry).canonical()}
            except Exception as exc:
                raise JobSpecError(
                    f"bad geometry suffix in scheme {entry!r}: {exc}"
                ) from exc
    elif isinstance(entry, dict):
        name = entry.get("name")
        options = entry.get("options", {})
        unknown = set(entry) - {"name", "options"}
        if unknown:
            raise JobSpecError(
                f"scheme entry has unknown fields {sorted(unknown)}: {entry!r}"
            )
        if not isinstance(options, dict):
            raise JobSpecError(f"scheme options must be an object, got {options!r}")
    else:
        raise JobSpecError(
            f"each scheme must be a name or {{name, options}} object, got {entry!r}"
        )
    if not isinstance(name, str) or not name:
        raise JobSpecError(f"scheme name must be a non-empty string, got {name!r}")
    if name not in protocols:
        raise JobSpecError(
            f"unknown scheme {name!r}; available: {', '.join(protocols)}"
        )
    try:
        json.dumps(options, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise JobSpecError(f"scheme options are not JSON-safe: {exc}") from exc
    return name, tuple(sorted(options.items()))


def _parse_trace_entry(entry: Any, workloads: list[str]) -> TraceSpec:
    if isinstance(entry, str):
        entry = {"workload": entry}
    if not isinstance(entry, dict):
        raise JobSpecError(
            f"each trace must be a workload name or an object, got {entry!r}"
        )
    unknown = set(entry) - {"workload", "path", "length", "seed"}
    if unknown:
        raise JobSpecError(
            f"trace entry has unknown fields {sorted(unknown)}: {entry!r}"
        )
    workload = entry.get("workload")
    path = entry.get("path")
    if (workload is None) == (path is None):
        raise JobSpecError(
            f"a trace needs exactly one of 'workload' or 'path', got {entry!r}"
        )
    if path is not None and not isinstance(path, str):
        raise JobSpecError(f"trace path must be a string, got {path!r}")
    if workload is not None and workload not in workloads:
        raise JobSpecError(
            f"unknown workload {workload!r}; available: {', '.join(workloads)}"
        )
    length = entry.get("length", DEFAULT_LENGTH)
    if not isinstance(length, int) or isinstance(length, bool) or length < 1:
        raise JobSpecError(f"trace length must be a positive integer, got {length!r}")
    seed = entry.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise JobSpecError(f"trace seed must be an integer, got {seed!r}")
    return TraceSpec(workload=workload, path=path, length=length, seed=seed)


def parse_job_spec(payload: Any) -> JobSpec:
    """Validate a JSON job spec; raises :class:`JobSpecError` on any defect."""
    if not isinstance(payload, dict):
        raise JobSpecError(f"job spec must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - {
        "schemes", "traces", "sharer_key", "priority", "dedup", "tags",
        "max_attempts",
    }
    if unknown:
        raise JobSpecError(f"job spec has unknown fields {sorted(unknown)}")

    raw_schemes = payload.get("schemes")
    if not isinstance(raw_schemes, list) or not raw_schemes:
        raise JobSpecError("job spec needs a non-empty 'schemes' list")
    protocols = available_protocols()
    schemes = tuple(_parse_scheme_entry(entry, protocols) for entry in raw_schemes)

    raw_traces = payload.get("traces")
    if not isinstance(raw_traces, list) or not raw_traces:
        raise JobSpecError("job spec needs a non-empty 'traces' list")
    workloads = known_workloads()
    traces = tuple(_parse_trace_entry(entry, workloads) for entry in raw_traces)

    sharer_key = payload.get("sharer_key", "pid")
    if sharer_key not in _SHARER_KEYS:
        raise JobSpecError(
            f"sharer_key must be one of {_SHARER_KEYS}, got {sharer_key!r}"
        )
    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise JobSpecError(f"priority must be an integer, got {priority!r}")
    dedup = payload.get("dedup", False)
    if not isinstance(dedup, bool):
        raise JobSpecError(f"dedup must be a boolean, got {dedup!r}")
    max_attempts = payload.get("max_attempts")
    if max_attempts is not None and (
        not isinstance(max_attempts, int)
        or isinstance(max_attempts, bool)
        or max_attempts < 1
    ):
        raise JobSpecError(
            f"max_attempts must be a positive integer, got {max_attempts!r}"
        )
    tags = payload.get("tags", {})
    if not isinstance(tags, dict):
        raise JobSpecError(f"tags must be an object, got {tags!r}")
    try:
        canonical_tags = tuple(sorted(tags.items()))
        json.dumps(tags, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise JobSpecError(f"tags are not JSON-safe: {exc}") from exc

    return JobSpec(
        schemes=schemes,
        traces=traces,
        sharer_key=sharer_key,
        priority=priority,
        dedup=dedup,
        tags=canonical_tags,
        max_attempts=max_attempts,
    )
