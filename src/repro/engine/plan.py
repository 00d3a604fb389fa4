"""Execution plans: the normalized description of one sweep.

The paper's methodology is a single loop — simulate every
(scheme × trace) cell, then weight event frequencies with cost models.
:class:`ExecutionPlan` is that loop's noun: the traces, the scheme
specs, and the simulator configuration, normalized into an ordered grid
of :class:`CellTask`\\ s.  Every entry point (``repro run``, the paper
artifacts, the bench harness, the simulation service) builds a plan and
hands it to one :class:`~repro.engine.core.Engine`; none of them
re-derive the grid themselves.  A plan may hold trace *specs*, which
the engine resolves to :class:`UnbuiltTrace`\\ s and builds on need.

The plan also owns the **content-fingerprint memo**: each trace's
fingerprint (the expensive half of a result-cache key) is computed at
most once per plan, regardless of how many scheme cells reference the
trace — not once per (scheme × trace) cell.

:class:`CellOutcome` is the terminal record of one cell, convertible to
and from the JSON transport payload that checkpoint manifests, pool
workers, and the service event stream all share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.experiment import parse_scheme, scheme_key
from repro.core.result import SimulationResult
from repro.core.simulator import Simulator
from repro.errors import ConfigurationError
from repro.protocols.base import CoherenceProtocol
from repro.protocols.registry import make_protocol
from repro.runner.cache import cache_key, trace_fingerprint
from repro.runner.checkpoint import result_from_json, result_to_json
from repro.trace.stream import Trace

#: A registry name, a (name, options) pair, or a protocol factory.
SchemeSpec = Any


def spec_key(spec: SchemeSpec) -> str:
    """The result key a scheme spec will be reported under."""
    if callable(spec) and not isinstance(spec, (str, tuple)):
        key = getattr(spec, "scheme_key", None)
        if key:
            return str(key)
        return getattr(spec, "__name__", type(spec).__name__)
    name, options = parse_scheme(spec)
    return scheme_key(name, options)


def num_caches_for(simulator: Simulator, trace: Trace) -> int:
    """Machine size for one cell: one cache per sharer in the trace."""
    sharers = trace.pids if simulator.sharer_key == "pid" else trace.cpus
    return max(1, len(sharers))


#: Resolved (name, frozen options) -> protocol factory, per process.
_FACTORY_MEMO: dict[Any, Any] = {}


def protocol_factory(spec: SchemeSpec) -> Any:
    """Resolve *spec* to a ``factory(num_caches) -> protocol`` callable.

    Registry specs (a name or ``(name, options)``) are parsed and
    validated once per process and the resolved factory is memoized, so
    a pool worker running a batch of cells — or a fabric worker leasing
    cell after cell of the same scheme — pays the scheme-resolution
    cost once instead of per cell.  Callable specs are returned as-is:
    they may be stateful (fault-injecting factories), so memoizing the
    *factory* is safe but sharing anything beyond it is not.
    """
    if callable(spec) and not isinstance(spec, (str, tuple)):
        return spec
    name, options = parse_scheme(spec)

    def build(num_caches: int) -> CoherenceProtocol:
        return make_protocol(name, num_caches, **options)

    try:
        memo_key = (name, tuple(sorted(options.items())))
    except TypeError:
        return build  # unhashable option values: resolve but don't memoize
    factory = _FACTORY_MEMO.get(memo_key)
    if factory is None:
        factory = build
        _FACTORY_MEMO[memo_key] = factory
    return factory


def build_protocol_for_cell(
    simulator: Simulator, spec: SchemeSpec, trace: Trace
) -> CoherenceProtocol:
    """Build the protocol instance for one (spec, trace) cell.

    Module-level so pool workers run exactly the same cell-construction
    code as the in-process engine.
    """
    num_caches = num_caches_for(simulator, trace)
    return protocol_factory(spec)(num_caches)


#: Target dispatches per worker when auto-sizing batches: enough slack
#: for load balancing, few enough that IPC stays amortized.
_BATCHES_PER_WORKER = 4


def auto_batch_size(cell_count: int, jobs: int) -> int:
    """Cells per pool dispatch when no explicit batch size is given.

    Aims at ~4 batches per worker: one IPC round-trip then carries many
    small cells, while stragglers can still be rebalanced across the
    remaining batches.
    """
    if cell_count <= 0:
        return 1
    return max(1, -(-cell_count // (max(1, jobs) * _BATCHES_PER_WORKER)))


def group_into_batches(items: Sequence[Any], batch_size: int) -> list[list[Any]]:
    """Split *items* into contiguous batches of at most *batch_size*.

    Contiguous (sweep-order) grouping keeps cells of one scheme
    together, which maximizes the per-worker protocol-factory memo's
    hit rate within a batch.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
    return [
        list(items[start : start + batch_size])
        for start in range(0, len(items), batch_size)
    ]


@dataclass
class CellTask:
    """One (scheme × trace) cell of a plan, with its resolved inputs.

    Attributes:
        spec: the scheme spec (name, ``(name, options)``, or factory).
        scheme_key: the result key the cell reports under.
        trace: the trace object to simulate.
        trace_name: the label results are filed under.
        index: position in sweep order (-1 when unplaced).
        cache_id: content-addressed result-cache key, or None when the
            cell is uncacheable (set by the layer that owns caching).
    """

    spec: SchemeSpec
    scheme_key: str
    trace: Any
    trace_name: str
    index: int = -1
    cache_id: str | None = None


@dataclass
class UnbuiltTrace:
    """A plan trace spec, resolved to its name and fingerprint unbuilt.

    Attributes:
        spec: the trace spec (a :class:`~repro.service.spec.TraceSpec`).
        name: the built trace's name, which its cells are filed under.
        fingerprint: its content fingerprint (None when not looked up).
        trace: the built trace — the memo's, if the lookup built one.
        error: why the spec could not be resolved; its cells fail with it.
    """

    spec: Any
    name: str
    fingerprint: str | None = None
    trace: Any = None
    error: Exception | None = None

    def load(self) -> Any:
        """The built trace, building it at most once."""
        if self.error is not None:
            raise self.error
        if self.trace is None:
            self.trace = self.spec.build()
        return self.trace


@dataclass
class CellOutcome:
    """The terminal record of one cell: a result or a contained error.

    Attributes:
        task: the cell this outcome belongs to.
        status: ``"ok"`` or ``"error"``.
        result: the live :class:`SimulationResult` (in-process paths).
        result_json: the serialized result (transport paths).
        category: the error's type name (error outcomes).
        message: the final error message (error outcomes).
        attempts: attempts made (ok: failures + 1; error: failures).
        error: the original exception object — only available when the
            cell ran in this process; never crosses a pool boundary.
        duration_s: wall-clock execution time (in-process runs).
        source: how the outcome was obtained: ``simulated`` (here or in
            a pool worker), ``cache``, ``checkpoint`` (restored from the
            manifest), ``coalesced`` (computed by another sweep sharing
            the result cache) or ``fabric`` (by the worker fleet).
    """

    task: CellTask
    status: str
    result: SimulationResult | None = None
    result_json: dict[str, Any] | None = None
    category: str | None = None
    message: str | None = None
    attempts: int = 1
    error: BaseException | None = None
    duration_s: float = 0.0
    source: str = "simulated"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def json_result(self) -> dict[str, Any]:
        """The serialized result payload (serializing lazily once)."""
        if self.result_json is None:
            self.result_json = result_to_json(self.result)
        return self.result_json

    def live_result(self) -> SimulationResult:
        """The result object (deserializing lazily once)."""
        if self.result is None:
            self.result = result_from_json(self.result_json)
        return self.result

    def to_payload(self) -> dict[str, Any]:
        """The legacy transport payload (manifest / worker / event shape)."""
        if self.status == "ok":
            return {
                "status": "ok",
                "result": self.json_result(),
                "attempts": self.attempts,
            }
        return {
            "status": "error",
            "category": self.category or "ReproError",
            "message": self.message or "",
            "attempts": self.attempts,
        }

    @classmethod
    def from_payload(
        cls, task: CellTask, payload: dict[str, Any], source: str = "simulated"
    ) -> "CellOutcome":
        """Rebuild an outcome from its transport payload."""
        if payload["status"] == "ok":
            return cls(
                task=task,
                status="ok",
                result_json=payload["result"],
                attempts=payload.get("attempts", 1),
                source=source,
            )
        return cls(
            task=task,
            status="error",
            category=payload.get("category", "ReproError"),
            message=payload.get("message", ""),
            attempts=payload.get("attempts", 1),
            source=source,
        )


@dataclass
class ExecutionPlan:
    """A normalized sweep: traces × schemes under one simulator config.

    Args:
        traces: input traces; cells are visited scheme-major.
        schemes: registry names, ``(name, options)`` pairs, or protocol
            factories ``factory(num_caches) -> protocol``.
        simulator: configured simulator (paper defaults when omitted).
    """

    traces: Sequence[Any]
    schemes: Sequence[SchemeSpec]
    simulator: Simulator | None = None
    #: Per-plan memo of trace-content fingerprints (id(trace) -> hex).
    _fingerprints: dict[int, str] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.simulator is None:
            self.simulator = Simulator()

    def validate(self) -> None:
        """Reject empty plans (same contract the pre-engine runner had)."""
        if not self.traces:
            raise ConfigurationError("experiment needs at least one trace")
        if not self.schemes:
            raise ConfigurationError("experiment needs at least one scheme")

    def scheme_keys(self) -> list[str]:
        """Result keys in sweep order."""
        return [spec_key(spec) for spec in self.schemes]

    def cells(self) -> list[CellTask]:
        """The full (scheme × trace) grid in sweep order, scheme-major."""
        tasks: list[CellTask] = []
        index = 0
        for spec in self.schemes:
            key = spec_key(spec)
            for trace in self.traces:
                tasks.append(
                    CellTask(
                        spec=spec,
                        scheme_key=key,
                        trace=trace,
                        trace_name=trace.name,
                        index=index,
                    )
                )
                index += 1
        return tasks

    def fingerprint(self) -> dict[str, Any]:
        """The checkpoint-manifest identity of this plan.

        Byte-compatible with the pre-engine runner's fingerprint, so
        manifests written before the engine refactor resume cleanly.
        """
        return {
            "schemes": self.scheme_keys(),
            "traces": [trace.name for trace in self.traces],
            "sharer_key": self.simulator.sharer_key,
        }

    def trace_fingerprint(self, trace: Any) -> str:
        """The trace's content fingerprint, computed at most once per plan.

        Memoized by object identity: a plan holds its traces for its
        lifetime, so every (scheme × trace) cell sharing the trace
        reuses one fingerprint instead of re-hashing the records.
        """
        if isinstance(trace, UnbuiltTrace):
            if trace.fingerprint is None:
                trace.fingerprint = trace_fingerprint(trace.load())
            return trace.fingerprint
        fingerprint = self._fingerprints.get(id(trace))
        if fingerprint is None:
            fingerprint = trace_fingerprint(trace)
            self._fingerprints[id(trace)] = fingerprint
        return fingerprint

    def cache_id(self, spec: SchemeSpec, trace: Any) -> str | None:
        """The cell's content-addressed cache key, or None if uncacheable.

        Any failure here (a corrupt lazy trace raising mid-fingerprint,
        unpicklable options) quietly disables caching for the cell; the
        cell then simulates normally and its errors get the ordinary
        containment treatment.
        """
        try:
            return cache_key(spec, self.simulator, self.trace_fingerprint(trace))
        except Exception:
            return None
