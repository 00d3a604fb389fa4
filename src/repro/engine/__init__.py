"""One instrumented execution engine behind every entry point.

The paper's methodology is a single loop — simulate every
(scheme × trace) cell, then weight event frequencies with cost models.
This package is that loop, once: :class:`ExecutionPlan` normalizes a
sweep, :class:`Engine` executes it under a composable policy stack
(retry, checkpoint, result cache), backends decide *where* cells run
(:class:`InlineBackend` in-process, :class:`ProcessPoolBackend` across
workers), and :class:`EngineObserver` events make every layer report
through the same instrumentation.  Every grid — ``repro run``, the
paper artifacts, the bench harness, the simulation service — runs as
``Engine(...).run(ExecutionPlan(...))``; there is no other sweep API.
"""

from repro import lazy_exports

_EXPORTS = {
    "CellOutcome": "repro.engine.plan",
    "CellTask": "repro.engine.plan",
    "DEFAULT_CHECKPOINT_EVERY": "repro.engine.policies",
    "Engine": "repro.engine.core",
    "EngineMetrics": "repro.engine.observer",
    "EngineObserver": "repro.engine.observer",
    "ExecutionPlan": "repro.engine.plan",
    "InlineBackend": "repro.engine.backends",
    "ManifestRecorder": "repro.engine.policies",
    "NULL_OBSERVER": "repro.engine.observer",
    "ObserverGroup": "repro.engine.observer",
    "OutcomeLog": "repro.engine.observer",
    "ProcessPoolBackend": "repro.engine.backends",
    "RetryPolicy": "repro.engine.policies",
    "SchemeSpec": "repro.engine.plan",
    "TraceArena": "repro.engine.shm",
    "attach_arena": "repro.engine.shm",
    "auto_batch_size": "repro.engine.plan",
    "build_protocol_for_cell": "repro.engine.plan",
    "execute_batch": "repro.engine.backends",
    "num_caches_for": "repro.engine.plan",
    "rehydrate_failure": "repro.engine.core",
    "run_cell": "repro.engine.backends",
    "run_with_retry": "repro.engine.policies",
    "shutdown_pools": "repro.engine.backends",
    "spec_key": "repro.engine.plan",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
