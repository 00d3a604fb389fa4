"""The runner's durable artifacts and fault-injection instruments.

Sweeps themselves run through :mod:`repro.engine`
(``Engine(...).run(ExecutionPlan(...))``), which owns retry, failure
containment, checkpointing and the result cache.  This subpackage holds
what that engine persists and what the tests use to attack it:

* :mod:`repro.runner.checkpoint` — versioned checkpoint/resume:
  completed cells in a JSON manifest, the in-progress cell as a binary
  mid-trace snapshot.
* :mod:`repro.runner.faults` — fault injection used to *prove* the
  containment story: corrupt records, truncated binary traces, flaky
  readers, illegal protocol states.
* :mod:`repro.runner.cache` — :class:`ResultCache`, an on-disk cache of
  simulation results keyed by (trace fingerprint, scheme + options,
  simulator config).

See ``docs/ARCHITECTURE.md`` for the engine layering,
``docs/ROBUSTNESS.md`` for the fault model and guarantees, and
``docs/PERFORMANCE.md`` for the parallel/caching design.
"""

from repro import lazy_exports

_EXPORTS = {
    "ResultCache": "repro.runner.cache",
    "cache_key": "repro.runner.cache",
    "trace_fingerprint": "repro.runner.cache",
    "CheckpointManager": "repro.runner.checkpoint",
    "result_from_json": "repro.runner.checkpoint",
    "result_to_json": "repro.runner.checkpoint",
    "FaultInjector": "repro.runner.faults",
    "FlakyReader": "repro.runner.faults",
    "FlakyTrace": "repro.runner.faults",
    "KillPoint": "repro.runner.faults",
    "SaboteurProtocol": "repro.runner.faults",
    "inject_illegal_dirty_copies": "repro.runner.faults",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
