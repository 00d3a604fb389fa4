"""One instrumented execution engine behind every entry point.

The paper's methodology is a single loop — simulate every
(scheme × trace) cell, then weight event frequencies with cost models.
This package is that loop, once: :class:`ExecutionPlan` normalizes a
sweep, :class:`Engine` executes it under a composable policy stack
(retry, checkpoint, result cache), backends decide *where* cells run
(:class:`InlineBackend` in-process, :class:`ProcessPoolBackend` across
workers), and :class:`EngineObserver` events make every layer report
through the same instrumentation.  ``runner.resilient``, the ``repro``
CLI, and the simulation service are all thin shells over this engine.
"""

from repro.engine.backends import (
    Cell,
    InlineBackend,
    ProcessPoolBackend,
    backend_for,
    execute_batch,
    run_cell,
    shutdown_pools,
)
from repro.engine.core import Engine, rehydrate_failure
from repro.engine.shm import TraceArena, attach_arena
from repro.engine.observer import (
    NULL_OBSERVER,
    EngineMetrics,
    EngineObserver,
    ObserverGroup,
    ProgressObserver,
)
from repro.engine.plan import (
    CellOutcome,
    CellTask,
    ExecutionPlan,
    SchemeSpec,
    auto_batch_size,
    build_protocol_for_cell,
    num_caches_for,
    spec_key,
)
from repro.engine.policies import (
    DEFAULT_CHECKPOINT_EVERY,
    ManifestRecorder,
    RetryPolicy,
    run_with_retry,
)

__all__ = [
    "Cell",
    "CellOutcome",
    "CellTask",
    "DEFAULT_CHECKPOINT_EVERY",
    "Engine",
    "EngineMetrics",
    "EngineObserver",
    "ExecutionPlan",
    "InlineBackend",
    "ManifestRecorder",
    "NULL_OBSERVER",
    "ObserverGroup",
    "ProcessPoolBackend",
    "ProgressObserver",
    "RetryPolicy",
    "SchemeSpec",
    "TraceArena",
    "attach_arena",
    "auto_batch_size",
    "backend_for",
    "build_protocol_for_cell",
    "execute_batch",
    "num_caches_for",
    "rehydrate_failure",
    "run_cell",
    "run_with_retry",
    "shutdown_pools",
    "spec_key",
]
