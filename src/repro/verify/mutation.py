"""Mutation testing: prove the conformance gate actually catches bugs.

A checker that never fires is indistinguishable from a checker that
works.  This module turns the repository's fault injector into a
sensitivity test for :mod:`repro.verify` itself: every registered
protocol is wrapped in a :class:`~repro.runner.faults.SaboteurProtocol`
mutant — planting illegal dirty copies, or raising an injected
transient — and driven through the exact conformance pipeline a real
fuzz run uses.  A mutant the gate fails to flag is a **survivor**: a
class of protocol bug the harness would wave through.  The acceptance
bar is a 100% kill rate.

Determinism matters here too: the driving trace is a pure function of
the seed, and triggers are fixed reference counts, so a survivor is
exactly reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError
from repro.protocols.registry import available_protocols
from repro.trace.record import RefType, TraceRecord
from repro.trace.stream import Trace

from repro.verify.checker import ConformanceChecker, ConformanceSpec

#: Saboteur modes exercised by default.  ``"kill"`` is excluded: it
#: simulates process death for checkpoint/resume tests, which is the
#: engine's containment problem, not a conformance property.
DEFAULT_MODES = ("illegal-state", "transient")

#: Eviction-logic saboteur modes (finite-capacity bug classes).
EVICTION_MODES = ("lru-mru", "drop-writeback", "stale-directory")

#: Cache geometry for eviction campaigns: 2 sets x 2 ways over the
#: driving trace's 6 hot blocks (3 contending per set) guarantees
#: steady replacement traffic, and associativity > 1 makes LRU-vs-MRU
#: victim selection observable.
DEFAULT_EVICTION_GEOMETRY = "4x2"

#: Data-reference counts after which mutants fire (one early, one deep).
DEFAULT_TRIGGERS = (3, 17)

_MUTATION_REFS = 200
_MUTATION_PROCESSES = 4
_MUTATION_BLOCKS = 6


def mutation_trace(seed: int = 0) -> Trace:
    """The deterministic driving trace for one mutation campaign.

    A contended read/write mix over a handful of blocks and processes:
    enough sharing that every trigger point lands on a block with
    cross-cache state, all data references so trigger counts line up
    with protocol callbacks one-to-one.
    """
    rng = random.Random(seed)
    records = []
    for _ in range(_MUTATION_REFS):
        pid = rng.randrange(_MUTATION_PROCESSES)
        block = rng.randrange(_MUTATION_BLOCKS)
        ref_type = RefType.WRITE if rng.random() < 0.35 else RefType.READ
        records.append(
            TraceRecord(cpu=pid, pid=pid, ref_type=ref_type, address=block * 16)
        )
    return Trace(
        name=f"mutation-{seed}",
        records=records,
        description=f"mutation-testing driver, seed={seed}",
    )


@dataclass(frozen=True)
class Mutant:
    """One injected protocol bug and whether the gate caught it."""

    scheme: str
    mode: str
    trigger: int
    killed: bool
    finding_kinds: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return f"{self.scheme}+{self.mode}@{self.trigger}"


@dataclass
class MutationReport:
    """Outcome of one mutation campaign.

    Attributes:
        mutants: every mutant tried, in sweep order.
        trace_name: the driving trace.
    """

    mutants: list[Mutant] = field(default_factory=list)
    trace_name: str = ""

    @property
    def total(self) -> int:
        return len(self.mutants)

    @property
    def killed(self) -> int:
        return sum(1 for mutant in self.mutants if mutant.killed)

    @property
    def survivors(self) -> list[Mutant]:
        """Mutants the conformance gate failed to detect (must be empty)."""
        return [mutant for mutant in self.mutants if not mutant.killed]

    @property
    def kill_rate(self) -> float:
        """Fraction of mutants detected (1.0 when the gate is airtight)."""
        return self.killed / self.total if self.mutants else 1.0

    def summary(self) -> str:
        """One-line human-readable account of the campaign."""
        line = (
            f"{self.killed}/{self.total} mutants killed "
            f"({self.kill_rate:.0%}) on {self.trace_name}"
        )
        if self.survivors:
            names = ", ".join(mutant.key for mutant in self.survivors[:5])
            line += f"; SURVIVORS: {names}"
        return line


def run_mutation_testing(
    schemes: Sequence[str] | None = None,
    seed: int = 0,
    triggers: Sequence[int] = DEFAULT_TRIGGERS,
    modes: Sequence[str] = DEFAULT_MODES,
    jobs: int = 1,
) -> MutationReport:
    """Drive saboteur mutants of every scheme through the conformance gate.

    Each (scheme × mode × trigger) mutant simulates the deterministic
    :func:`mutation_trace`; a mutant counts as killed when the checker
    reports at least one finding against its cell.  Differential
    comparison is disabled — mutants are *supposed* to diverge.
    """
    trace = mutation_trace(seed)
    data_refs = len(trace.records)
    for trigger in triggers:
        if not 1 <= trigger <= data_refs:
            raise ConfigurationError(
                f"trigger {trigger} outside the driving trace's "
                f"1..{data_refs} data references; the mutant would never fire"
            )
    checker = ConformanceChecker(schemes=schemes, jobs=jobs)
    specs = [
        ConformanceSpec(scheme, saboteur_trigger=trigger, saboteur_mode=mode)
        for scheme in checker.schemes
        for mode in modes
        for trigger in triggers
    ]
    report = checker.check([trace], specs=specs, differential=False)

    kinds_by_key: dict[str, list[str]] = {}
    for finding in report.findings:
        kinds_by_key.setdefault(finding.scheme, []).append(finding.kind)

    outcome = MutationReport(trace_name=trace.name)
    for spec in specs:
        kinds = tuple(kinds_by_key.get(spec.scheme_key, ()))
        outcome.mutants.append(
            Mutant(
                scheme=spec.scheme,
                mode=spec.saboteur_mode,
                trigger=spec.saboteur_trigger,
                killed=bool(kinds),
                finding_kinds=kinds,
            )
        )
    return outcome


def _kind_of(exc: Exception) -> str:
    from repro.verify.checker import _CATEGORY_KINDS

    return _CATEGORY_KINDS.get(type(exc).__name__, "error")


def _machine_digest(protocol) -> tuple:
    """Full final cache state, per-set residency order included.

    Replacement-policy mutants can coincidentally reproduce a clean
    run's aggregate event counts; the machine they leave behind — which
    lines survive, and in what recency order — still betrays them.
    """
    from repro.core.invariants import unwrap_protocol

    real = unwrap_protocol(protocol)
    return tuple(
        tuple((block, str(cache.get(block))) for block in cache.blocks())
        for cache in real._caches
    )


def run_eviction_mutation_testing(
    schemes: Sequence[str] | None = None,
    seed: int = 0,
    geometry: str = DEFAULT_EVICTION_GEOMETRY,
    triggers: Sequence[int] = DEFAULT_TRIGGERS,
    modes: Sequence[str] = EVICTION_MODES,
) -> MutationReport:
    """Prove the gate catches eviction-logic bugs under finite capacity.

    Every (scheme × mode × trigger) mutant simulates the deterministic
    :func:`mutation_trace` under a tight finite *geometry* with per-ref
    invariant checking and the oracle's eviction audit.  A mutant is
    killed when the run raises (oracle / invariant / protocol error) —
    or, for coherent-but-wrong mutants like LRU-becomes-MRU, when its
    event counts or final machine state (cache contents in recency
    order) diverge from the clean finite baseline of the same cell
    (recorded as a ``differential`` kill).

    ``drop-writeback`` is vacuous for write-through protocols (their
    caches never hold dirty lines, so there is no write-back to drop);
    those cells are skipped rather than counted as survivors.
    """
    from repro.core.simulator import Simulator
    from repro.errors import ReproError

    trace = mutation_trace(seed)
    num_caches = len(trace.pids)

    def run_cell(spec: ConformanceSpec):
        simulator = Simulator(check_invariants=1)
        protocol = spec(num_caches)
        result = simulator.run(trace, protocol)
        return result, _machine_digest(protocol)

    checker = ConformanceChecker(schemes=schemes)
    outcome = MutationReport(trace_name=trace.name)
    for scheme in checker.schemes:
        clean_spec = ConformanceSpec(scheme, geometry=geometry)
        # The clean cell must pass, or the gate itself is broken.
        baseline, baseline_digest = run_cell(clean_spec)
        writes_through = clean_spec(num_caches).writes_through
        for mode in modes:
            if mode == "drop-writeback" and writes_through:
                continue
            for trigger in triggers:
                spec = ConformanceSpec(
                    scheme,
                    saboteur_trigger=trigger,
                    saboteur_mode=mode,
                    geometry=geometry,
                )
                try:
                    mutated, mutated_digest = run_cell(spec)
                except ReproError as exc:
                    killed, kinds = True, (_kind_of(exc),)
                else:
                    killed = (
                        mutated.event_counts != baseline.event_counts
                        or mutated_digest != baseline_digest
                    )
                    kinds = ("differential",) if killed else ()
                outcome.mutants.append(
                    Mutant(
                        scheme=scheme,
                        mode=mode,
                        trigger=trigger,
                        killed=killed,
                        finding_kinds=kinds,
                    )
                )
    return outcome
