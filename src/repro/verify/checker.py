"""The unified conformance checker: oracle + invariants + differentials.

Before this module, the repository's correctness checkers lived apart:
the value-coherence oracle (:mod:`repro.core.oracle`), the structural
invariant checker (:mod:`repro.core.invariants`), exhaustive
single-block exploration (:mod:`repro.core.statespace`), and ad-hoc
cross-protocol comparisons in tests.  :class:`ConformanceChecker` runs
them as **one gate**:

* every (protocol × trace) cell simulates through a
  :class:`~repro.core.oracle.CoherentOracle` wrapper with the
  :class:`~repro.core.invariants.InvariantChecker` running per data
  reference — stale reads and structural violations surface in the same
  pass;
* after the sweep, protocol-independent **event-frequency
  differentials** are compared across schemes: the instruction count,
  read/write totals, and first-reference totals are properties of the
  *trace*, so every correct protocol must report identical values;
* every clean plain cell is then simulated once more on the **fast
  path** — the bare protocol through an uninstrumented
  :class:`Simulator`, so the columnar loop or a state-table kernel
  runs it — and must reproduce the checked cell's result exactly;
* cells fan out through the engine's execution backends
  (:func:`repro.engine.backends.backend_for`), so ``--jobs`` parallelism
  and failure containment come from the same layer every other sweep
  uses.

Reports are canonically serializable: :meth:`ConformanceReport.digest`
hashes a key-sorted JSON form, so two runs with the same seed are
byte-comparable end to end.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.core.simulator import Simulator
from repro.core.oracle import CoherentOracle
from repro.core.statespace import default_caches_for, explore_block_states
from repro.engine.backends import backend_for
from repro.engine.plan import CellTask, num_caches_for
from repro.engine.policies import RetryPolicy
from repro.errors import ConformanceError, ConfigurationError, UnknownSchemeError
from repro.protocols.events import EventType
from repro.protocols.registry import available_protocols, make_protocol
from repro.runner.checkpoint import result_to_json
from repro.runner.faults import SaboteurProtocol
from repro.trace.stream import Trace

#: Event groups that are trace properties: every correct protocol must
#: report identical totals for each group on the same trace.
DIFFERENTIAL_GROUPS: dict[str, tuple[EventType, ...]] = {
    "instructions": (EventType.INSTR,),
    "reads": (
        EventType.RD_HIT,
        EventType.RM_BLK_CLN,
        EventType.RM_BLK_DRTY,
        EventType.RM_FIRST_REF,
    ),
    "writes": (
        EventType.WH_BLK_CLN,
        EventType.WH_BLK_DRTY,
        EventType.WH_DISTRIB,
        EventType.WH_LOCAL,
        EventType.WM_BLK_CLN,
        EventType.WM_BLK_DRTY,
        EventType.WM_FIRST_REF,
    ),
    "first-references": (EventType.RM_FIRST_REF, EventType.WM_FIRST_REF),
}

#: Failure categories mapped to finding kinds (anything else: "error").
_CATEGORY_KINDS = {
    "StaleReadError": "oracle",
    "InvariantViolation": "invariant",
    "ProtocolError": "protocol",
    "TransientError": "fault",
}


@dataclass(frozen=True)
class ConformanceSpec:
    """A picklable scheme spec that builds the instrumented protocol.

    Engine backends call the spec with the cell's machine size; the
    result is the protocol wrapped in a
    :class:`~repro.core.oracle.CoherentOracle` (and optionally a
    :class:`~repro.runner.faults.SaboteurProtocol` between the two, for
    mutation testing).  The invariant checker unwraps the stack, so the
    full structural checks still run against the real protocol.

    Attributes:
        scheme: protocol registry name.
        saboteur_trigger: data-reference count after which the saboteur
            fires (None = no saboteur, the normal conformance cell).
        saboteur_mode: a :class:`SaboteurProtocol` mode.
        geometry: optional finite cache geometry (any
            :func:`~repro.memory.geometry.parse_geometry` spelling) —
            the cell then simulates finite capacity, and the oracle's
            eviction audit engages.
    """

    scheme: str
    saboteur_trigger: int | None = None
    saboteur_mode: str = "illegal-state"
    geometry: str | None = None

    @property
    def scheme_key(self) -> str:
        key = self.scheme
        if self.geometry is not None:
            key = f"{key}@{self.geometry}"
        if self.saboteur_trigger is not None:
            key = f"{key}+{self.saboteur_mode}@{self.saboteur_trigger}"
        return key

    def build(self, num_caches: int):
        """The bare protocol this cell checks, at the cell's machine size."""
        options = {} if self.geometry is None else {"geometry": self.geometry}
        return make_protocol(
            self.scheme, default_caches_for(self.scheme, num_caches), **options
        )

    def __call__(self, num_caches: int):
        built = self.build(num_caches)
        if self.saboteur_trigger is not None:
            built = SaboteurProtocol(
                built, self.saboteur_trigger, mode=self.saboteur_mode
            )
        return CoherentOracle(built)


@dataclass(frozen=True)
class Finding:
    """One conformance failure.

    Attributes:
        trace_name: the trace the failure occurred on.
        scheme: the scheme key of the failing cell (``"*"`` for
            trace-level differential findings).
        kind: ``oracle`` (stale read), ``invariant`` (structural),
            ``protocol`` (other protocol error), ``differential``
            (cross-protocol mismatch), ``fast-path`` (the uninstrumented
            fast path disagrees with the checked cell), ``fault``
            (injected transient), or ``error`` (anything else).
        message: the failure detail.
    """

    trace_name: str
    scheme: str
    kind: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.scheme} on {self.trace_name}: {self.message}"


@dataclass
class ConformanceReport:
    """Outcome of one conformance sweep (canonically serializable).

    Attributes:
        schemes: scheme keys checked, in sweep order.
        trace_names: trace names checked, in sweep order.
        cells: number of (scheme × trace) cells executed.
        findings: every conformance failure found.
        summaries: per-trace, per-scheme differential summaries (only
            cells that simulated cleanly).
    """

    schemes: list[str] = field(default_factory=list)
    trace_names: list[str] = field(default_factory=list)
    cells: int = 0
    findings: list[Finding] = field(default_factory=list)
    summaries: dict[str, dict[str, dict[str, int]]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when every cell conformed and every differential agreed."""
        return not self.findings

    def to_json(self) -> dict[str, Any]:
        """A JSON-safe canonical form (stable across equal-seed runs)."""
        return {
            "schemes": list(self.schemes),
            "traces": list(self.trace_names),
            "cells": self.cells,
            "findings": [
                {
                    "trace": finding.trace_name,
                    "scheme": finding.scheme,
                    "kind": finding.kind,
                    "message": finding.message,
                }
                for finding in self.findings
            ],
            "summaries": self.summaries,
        }

    def digest(self) -> str:
        """SHA-256 of the canonical JSON form; equal runs hash equal."""
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def raise_on_failure(self) -> None:
        """Raise :class:`~repro.errors.ConformanceError` unless clean."""
        if self.findings:
            lines = [str(finding) for finding in self.findings[:10]]
            more = len(self.findings) - len(lines)
            if more > 0:
                lines.append(f"... and {more} more")
            raise ConformanceError(
                f"{len(self.findings)} conformance failure"
                f"{'s' if len(self.findings) != 1 else ''}:\n  "
                + "\n  ".join(lines)
            )


def summarize_events(payload: dict[str, Any]) -> dict[str, int]:
    """Differential summary of one serialized simulation result."""
    counts = payload.get("event_counts", {})
    summary = {"total-refs": int(payload.get("total_refs", 0))}
    for group, events in DIFFERENTIAL_GROUPS.items():
        summary[group] = sum(int(counts.get(event.value, 0)) for event in events)
    return summary


class ConformanceChecker:
    """Runs protocols through the unified conformance gate.

    Args:
        schemes: registry names to check (all registered by default).
        sharer_key: trace-sharer view, as in :class:`Simulator`.
        check_interval: invariant-check cadence in data references
            (1 = every reference, the strictest setting).
        jobs: worker processes for the sweep; cells fan out through the
            same engine backends as every other sweep.
    """

    def __init__(
        self,
        schemes: Sequence[str] | None = None,
        sharer_key: str = "pid",
        check_interval: int = 1,
        jobs: int = 1,
    ) -> None:
        if check_interval < 1:
            raise ConfigurationError(
                f"check_interval must be >= 1, got {check_interval}"
            )
        registered = available_protocols()
        if schemes is not None:
            for scheme in schemes:
                if scheme not in registered:
                    raise UnknownSchemeError(
                        f"unknown scheme {scheme!r}; known: {', '.join(registered)}"
                    )
        self.schemes = list(schemes) if schemes is not None else registered
        self.sharer_key = sharer_key
        self.check_interval = check_interval
        self.jobs = jobs

    # ------------------------------------------------------------------

    def _simulator(self) -> Simulator:
        return Simulator(
            sharer_key=self.sharer_key, check_invariants=self.check_interval
        )

    def specs_for(
        self, geometries: Sequence[str | None] = (None,)
    ) -> list[ConformanceSpec]:
        """One plain spec per (geometry × scheme); ``None`` = infinite.

        Mixing infinite and finite cells in one sweep is safe for the
        differential stage: the compared event-group totals are trace
        properties, invariant under replacement traffic (a replacement
        miss is still a read- or write-class event).
        """
        return [
            ConformanceSpec(scheme, geometry=geometry)
            for geometry in geometries
            for scheme in self.schemes
        ]

    def check(
        self,
        traces: Iterable[Trace],
        specs: Sequence[ConformanceSpec] | None = None,
        differential: bool = True,
    ) -> ConformanceReport:
        """Run every (spec × trace) cell and collect a unified report.

        Args:
            traces: the traces to sweep.
            specs: explicit cell specs (mutation testing passes saboteur
                specs); defaults to one plain spec per scheme.
            differential: compare trace-level event totals across the
                clean cells of each trace (disabled for saboteur sweeps,
                where cells are *supposed* to fail).
        """
        trace_list = list(traces)
        if specs is None:
            specs = [ConformanceSpec(scheme) for scheme in self.schemes]
        report = ConformanceReport(
            schemes=[spec.scheme_key for spec in specs],
            trace_names=[trace.name for trace in trace_list],
        )
        if not trace_list or not specs:
            return report

        cells = []
        index = 0
        for spec in specs:
            for trace in trace_list:
                cells.append(
                    CellTask(
                        spec=spec,
                        scheme_key=spec.scheme_key,
                        trace=trace,
                        trace_name=trace.name,
                        index=index,
                    )
                )
                index += 1
        report.cells = len(cells)

        # Conformance failures are permanent, so retry is a single
        # attempt: an injected TransientError must surface as a finding,
        # not be absorbed by the retry middleware.
        backend = backend_for(self.jobs, RetryPolicy(max_attempts=1))
        outcomes = backend.run(self._simulator(), cells)

        for position in sorted(outcomes):
            task = cells[position]
            payload = outcomes[position]
            if payload["status"] == "ok":
                report.summaries.setdefault(task.trace_name, {})[task.scheme_key] = (
                    summarize_events(payload["result"])
                )
                if task.spec.saboteur_trigger is None:
                    finding = self._fast_path(task, payload["result"])
                    if finding is not None:
                        report.findings.append(finding)
            else:
                category = payload.get("category", "ReproError")
                report.findings.append(
                    Finding(
                        trace_name=task.trace_name,
                        scheme=task.scheme_key,
                        kind=_CATEGORY_KINDS.get(category, "error"),
                        message=f"{category}: {payload.get('message', '')}",
                    )
                )

        if differential:
            report.findings.extend(self._differentials(report.summaries))
        return report

    def check_trace(self, trace: Trace, **kwargs: Any) -> ConformanceReport:
        """Convenience: :meth:`check` over a single trace."""
        return self.check([trace], **kwargs)

    def _fast_path(self, task: CellTask, checked: dict[str, Any]) -> Finding | None:
        """Re-run a clean cell on the fast path; a finding on any mismatch.

        The checked cell ran the oracle-wrapped protocol with invariant
        checks, which forces the record loop.  Here the bare protocol
        runs through a plain :class:`Simulator`, so the columnar loop —
        or a state-table kernel, where one applies — simulates the same
        trace, and its result (labels aside) must match exactly.
        """
        simulator = Simulator(sharer_key=self.sharer_key)
        protocol = task.spec.build(num_caches_for(simulator, task.trace))
        try:
            fast = result_to_json(simulator.run(task.trace, protocol))
        except Exception as exc:  # any failure here is the fast path's
            message = f"{type(exc).__name__}: {exc}"
        else:
            differing = sorted(
                key
                for key in fast.keys() | checked.keys()
                if key not in ("scheme", "trace_name")
                and fast.get(key) != checked.get(key)
            )
            if not differing:
                return None
            message = f"fast path disagrees on {', '.join(differing)}"
        return Finding(
            trace_name=task.trace_name,
            scheme=task.scheme_key,
            kind="fast-path",
            message=message,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _differentials(
        summaries: dict[str, dict[str, dict[str, int]]]
    ) -> list[Finding]:
        """Cross-protocol mismatches in trace-level event totals."""
        findings: list[Finding] = []
        for trace_name, per_scheme in summaries.items():
            if len(per_scheme) < 2:
                continue
            for measure in ("total-refs", *DIFFERENTIAL_GROUPS):
                values: dict[int, list[str]] = {}
                for scheme, summary in per_scheme.items():
                    values.setdefault(summary[measure], []).append(scheme)
                if len(values) > 1:
                    detail = "; ".join(
                        f"{value} from {', '.join(sorted(schemes))}"
                        for value, schemes in sorted(values.items())
                    )
                    findings.append(
                        Finding(
                            trace_name=trace_name,
                            scheme="*",
                            kind="differential",
                            message=f"{measure} disagree across protocols: {detail}",
                        )
                    )
        return findings

    # ------------------------------------------------------------------

    def check_statespace(self, num_caches: int = 3) -> ConformanceReport:
        """Exhaustive single-block exploration of every checked scheme.

        The fourth leg of the unified gate: delegates to
        :func:`repro.core.statespace.explore_block_states` and folds any
        violations into the same report shape as the trace-driven
        checks.
        """
        report = ConformanceReport(schemes=list(self.schemes))
        for scheme in self.schemes:
            caches = default_caches_for(scheme, num_caches)
            exploration = explore_block_states(scheme, num_caches=caches)
            report.cells += 1
            for violation in exploration.violations:
                report.findings.append(
                    Finding(
                        trace_name=f"statespace[{caches} caches]",
                        scheme=scheme,
                        kind="invariant",
                        message=violation,
                    )
                )
        return report
