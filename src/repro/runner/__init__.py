"""Resilient experiment runner: the fault-tolerance layer.

This subpackage sits between the simulator core and the CLI/analysis
layers.  Execution itself lives in :mod:`repro.engine`; what remains
here are the runner's durable artifacts and test instruments:

* :mod:`repro.runner.resilient` — :class:`ResilientExperiment`, the
  sweep-level entry point (a thin configuration shell over the engine):
  error-isolated cells with retry + exponential backoff; failures
  become :class:`~repro.core.experiment.CellFailure` records instead of
  aborting the sweep.
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
    "DEFAULT_CHECKPOINT_EVERY": "repro.runner.resilient",
    "ResilientExperiment": "repro.runner.resilient",
    "RetryPolicy": "repro.runner.resilient",
    "build_protocol_for_cell": "repro.runner.resilient",
    "num_caches_for": "repro.runner.resilient",
    "run_resilient_sweep": "repro.runner.resilient",
    "spec_key": "repro.runner.resilient",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
