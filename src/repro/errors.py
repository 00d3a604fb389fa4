"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause
while still distinguishing the common failure categories.

The command-line interface maps these categories onto distinct process
exit codes (see :mod:`repro.cli`): :class:`TraceFormatError` exits 3,
:class:`ProtocolError` (including :class:`InvariantViolation`) exits 4,
:class:`ConfigurationError` exits 5, :class:`ServiceError` exits 6,
:class:`ConformanceError` exits 7, and any other :class:`ReproError`
exits 2.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TraceFormatError",
    "ProtocolError",
    "InvariantViolation",
    "ConfigurationError",
    "UnknownSchemeError",
    "CheckpointError",
    "ConformanceError",
    "TransientError",
    "ServiceError",
    "JobSpecError",
    "JobNotFoundError",
    "ServiceUnavailableError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class TraceFormatError(ReproError):
    """A trace file or record stream is malformed or uses an unknown format.

    Attributes:
        path: source file the malformed data came from, when known.
        line: 1-based line number of the malformed text record, when known.
        record: 0-based record index of the malformed binary record,
            when known (the binary counterpart of ``line``).
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        line: int | None = None,
        record: int | None = None,
    ) -> None:
        location = ""
        if line is not None:
            location = f":{line}"
        elif record is not None:
            location = f":record {record}"
        prefix = f"{path}{location}:" if path is not None else (
            f"record {record}:" if record is not None else ""
        )
        super().__init__(f"{prefix} {message}" if prefix else message)
        self.message = message
        self.path = path
        self.line = line
        self.record = record


class ProtocolError(ReproError):
    """A coherence protocol was driven into (or detected) an illegal state."""


class InvariantViolation(ProtocolError):
    """A runtime coherence invariant check failed.

    Raised by :class:`repro.core.invariants.InvariantChecker` when the
    global cache/directory state contradicts the protocol's declared
    invariants (e.g. two dirty copies of one block).
    """


class ConfigurationError(ReproError):
    """An experiment, workload, or cost model was configured inconsistently."""


class UnknownSchemeError(ConfigurationError):
    """A protocol or workload name did not resolve in the registry."""


class CheckpointError(ReproError):
    """A checkpoint is missing, corrupt, or incompatible with this run.

    Raised by :mod:`repro.runner.checkpoint` when a snapshot fails its
    magic/version/fingerprint compatibility check, so a resumed run can
    never silently mix state from a different experiment.
    """


class ConformanceError(ReproError):
    """A protocol failed the :mod:`repro.verify` conformance gate.

    Covers every way the unified checker can fail: a stale read caught
    by the value-coherence oracle, an invariant violation, a
    cross-protocol event-frequency differential mismatch, a corpus
    regression, or a mutation-testing survivor.  The CLI maps this
    category to exit code 7.
    """


class TransientError(ReproError):
    """A transient, retryable failure (flaky I/O, injected fault).

    The engine's retry layer treats this category — plus
    :class:`OSError` — as worth retrying with backoff; every other
    failure is permanent and is recorded as a cell failure immediately.
    """


class ServiceError(ReproError):
    """Base class for simulation-service failures (:mod:`repro.service`).

    The CLI maps this category to exit code 6; the HTTP API maps its
    subclasses to status codes (:class:`JobSpecError` → 400,
    :class:`JobNotFoundError` → 404, anything else → 500/503).
    """


class JobSpecError(ServiceError):
    """A submitted job spec failed validation (unknown scheme, bad shape)."""


class JobNotFoundError(ServiceError):
    """A job id did not resolve to a known job on this server."""


class ServiceUnavailableError(ServiceError):
    """The service rejected the request (shutting down, or unreachable)."""
