"""repro.verify — the unified conformance harness.

One subsystem for "is this protocol implementation correct":

* :class:`TraceFuzzer` — seeded, deterministic generation of
  adversarial sharing patterns as real traces;
* :class:`ConformanceChecker` — every checker the repository has
  (value-coherence oracle, per-step invariants, cross-protocol event
  differentials, exhaustive statespace exploration) behind one call;
* :func:`shrink_trace` — automatic reduction of failing traces to
  1-minimal reproducers;
* :class:`Corpus` — the golden regression corpus those reproducers are
  committed to and replayed from;
* :func:`run_mutation_testing` — fault-injection mutants proving the
  gate actually fires (100% kill rate required).

The ``repro verify`` CLI verb fronts all of it; see
``docs/VERIFICATION.md`` for the operational guide.
"""

from repro import lazy_exports

_EXPORTS = {
    "DEFAULT_EVICTION_GEOMETRY": "repro.verify.mutation",
    "DIFFERENTIAL_GROUPS": "repro.verify.checker",
    "EVICTION_MODES": "repro.verify.mutation",
    "PATTERNS": "repro.verify.fuzzer",
    "ConformanceChecker": "repro.verify.checker",
    "ConformanceReport": "repro.verify.checker",
    "ConformanceSpec": "repro.verify.checker",
    "Corpus": "repro.verify.corpus",
    "CorpusEntry": "repro.verify.corpus",
    "Finding": "repro.verify.checker",
    "Mutant": "repro.verify.mutation",
    "MutationReport": "repro.verify.mutation",
    "TraceFuzzer": "repro.verify.fuzzer",
    "failure_predicate": "repro.verify.shrink",
    "mutation_trace": "repro.verify.mutation",
    "run_eviction_mutation_testing": "repro.verify.mutation",
    "run_mutation_testing": "repro.verify.mutation",
    "shrink_records": "repro.verify.shrink",
    "shrink_trace": "repro.verify.shrink",
    "summarize_events": "repro.verify.checker",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
