"""Execution backends: the pluggable "where does a cell run" layer.

Every backend executes the same per-cell unit — build the protocol,
simulate, retry transient failures under the plan's
:class:`~repro.engine.policies.RetryPolicy` — and reports outcomes in
the same JSON transport payload the checkpoint manifest uses, firing
``cell_started`` and ``cell_finished`` for each cell it computes.
:class:`InlineBackend` runs cells here, :class:`ProcessPoolBackend`
across worker processes, :class:`~repro.fabric.queue.FleetBackend` on
the worker fleet; :func:`backend_for` picks inline or pool from a
worker count.  Nothing above this layer knows where a cell ran.

The pooled backend's dispatch path is built for throughput:

* **warm workers** — pools are module-level and keyed by worker count,
  so consecutive sweeps (a scheduler draining jobs, a benchmark loop)
  reuse live worker processes instead of re-forking per sweep;
* **shared-memory traces** — every :class:`ColumnarTrace` (or
  column-backed :class:`~repro.trace.stream.Trace`) in the sweep is
  named in a :class:`~repro.engine.shm.TraceArena`, which moves a trace
  into shared memory the first time any sweep ships it and keeps it
  there for the trace's lifetime; cell descriptors then carry a small
  arena index instead of a pickled trace (see ``repro/engine/shm.py``);
* **batched cells** — one pool round-trip carries a batch of cell
  descriptors (``batch`` cells, auto-sized from cells-per-worker when
  unset), amortizing IPC and letting workers reuse the per-process
  protocol-factory memo across a batch.

Containment is preserved layer by layer:

* exceptions inside a worker are retried there and, once permanent,
  returned as failure payloads (never raised across the pool);
* a cell whose inputs do not pickle (an in-memory factory protocol, a
  fault-injection wrapper holding a live file handle) silently falls
  back to in-process execution — the pool is an optimization, not a
  requirement;
* a worker process dying outright re-runs that batch's cells in the
  parent, where the ordinary containment applies; a broken pool is
  retired so the next sweep gets a fresh one.

Results are reported twice: an ``on_complete`` callback fires in
completion order (for incremental checkpointing), and the returned
mapping is keyed by cell index so the caller can assemble results in
deterministic sweep order regardless of scheduling.  Backends fire
``cell_finished`` observer events in the parent process as outcomes
arrive; per-attempt ``cell_retry`` events are only observable for
in-process execution.
"""

from __future__ import annotations

import atexit
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.core.simulator import Simulator
from repro.errors import ConfigurationError
from repro.runner.checkpoint import result_to_json
from repro.trace.columnar import ColumnarTrace
from repro.trace.stream import Trace

from repro.engine.observer import NULL_OBSERVER, EngineObserver
from repro.engine.plan import (
    CellOutcome,
    CellTask,
    auto_batch_size,
    build_protocol_for_cell,
    group_into_batches,
)
from repro.engine.policies import RetryPolicy, run_with_retry
from repro.engine.shm import TraceArena, attach_arena

def _run_one_attempt(
    simulator: Simulator, spec: Any, key: str, trace: Trace
) -> dict[str, Any]:
    """One protocol build + simulation; returns the result's JSON form."""
    protocol = build_protocol_for_cell(simulator, spec, trace)
    result = simulator.run(trace, protocol, trace_name=trace.name)
    result.scheme = key
    return result_to_json(result)


def run_cell(
    simulator: Simulator,
    task: CellTask,
    retry: RetryPolicy | None = None,
    observer: EngineObserver | None = None,
    attempt: Callable[[], Any] | None = None,
) -> CellOutcome:
    """Run one cell in-process to a terminal outcome (the engine's unit).

    Wraps a single cell attempt in the engine retry middleware and
    reports the terminal outcome to *observer* (``cell_finished`` fires
    exactly once per cell; for pooled cells the backend fires it
    parent-side instead).  Never raises for ordinary failures — the
    caller chooses containment or strict re-raise from the outcome,
    which still holds the original exception object.

    Args:
        simulator: the configured simulator.
        task: the cell to run.
        retry: transient-failure policy (defaults to a fresh
            :class:`RetryPolicy`).
        observer: engine event hook (defaults to the no-op observer).
        attempt: override for the single-attempt body — the engine's
            serial path injects its windowed checkpointed execution
            here; the default builds the protocol and simulates the
            whole trace in one shot.
    """
    if retry is None:
        retry = RetryPolicy()
    if observer is None:
        observer = NULL_OBSERVER
    if attempt is None:

        def attempt() -> Any:
            protocol = build_protocol_for_cell(simulator, task.spec, task.trace)
            result = simulator.run(task.trace, protocol, trace_name=task.trace_name)
            result.scheme = task.scheme_key
            return result

    start = time.monotonic()
    result, error, attempts = run_with_retry(attempt, retry, observer, task)
    duration = time.monotonic() - start
    if error is None:
        outcome = CellOutcome(
            task=task,
            status="ok",
            result=result,
            attempts=attempts,
            duration_s=duration,
        )
    else:
        outcome = CellOutcome(
            task=task,
            status="error",
            category=type(error).__name__,
            message=str(error),
            attempts=attempts,
            error=error,
            duration_s=duration,
        )
    observer.cell_finished(task, outcome)
    return outcome


def _terminal_payload(
    simulator: Simulator, spec: Any, key: str, trace: Any, retry: RetryPolicy
) -> dict[str, Any]:
    """Run one cell to its terminal transport payload; never raises."""
    result_json, error, attempts = run_with_retry(
        lambda: _run_one_attempt(simulator, spec, key, trace), retry
    )
    if error is None:
        return {"status": "ok", "result": result_json, "attempts": attempts}
    return {
        "status": "error",
        "category": type(error).__name__,
        "message": str(error),
        "attempts": attempts,
    }


def execute_batch(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """Run a batch of cells in one pool round-trip (worker entry point).

    The payload carries the simulator and retry policy once per batch,
    an optional :class:`TraceArena` descriptor, and one compact
    descriptor per cell: the scheme key, the spec as its own pickle
    (unpickled per cell so stateful factory specs get a fresh copy per
    cell, exactly as per-cell dispatch gave them), and either an arena
    trace index or an inline trace object.  Returns terminal outcome
    payloads in batch order; cell failures are contained per cell, so
    the only exceptions that escape are infrastructure ones (a vanished
    arena segment), which the parent treats as a dead batch and re-runs
    locally.
    """
    simulator = payload["simulator"]
    retry = payload["retry"]
    descriptor = payload.get("arena")
    arena = attach_arena(descriptor) if descriptor is not None else None
    results: list[dict[str, Any]] = []
    for cell in payload["cells"]:
        spec = pickle.loads(cell["spec"])
        if "trace_index" in cell:
            trace = arena.trace_from(cell["trace_index"])
        else:
            trace = cell["trace"]
        results.append(_terminal_payload(simulator, spec, cell["key"], trace, retry))
    return results


def _picklable_retry(retry: RetryPolicy) -> RetryPolicy:
    """The retry policy with any unpicklable sleep hook made shippable.

    Tests inject counting lambdas as ``sleep``; those cannot cross a
    process boundary, so workers fall back to the real ``time.sleep``
    with the same delay schedule.
    """
    try:
        pickle.dumps(retry)
        return retry
    except Exception:
        return replace(retry, sleep=time.sleep)


# ----------------------------------------------------------------------
# Warm worker pools
# ----------------------------------------------------------------------

#: Live pools keyed by worker count, reused across sweeps in-process.
_POOLS: dict[int, ProcessPoolExecutor] = {}


def _warm_pool(jobs: int) -> ProcessPoolExecutor:
    """The process pool for *jobs* workers, creating it on first use."""
    pool = _POOLS.get(jobs)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=jobs)
        _POOLS[jobs] = pool
    return pool


def _retire_pool(jobs: int) -> None:
    """Drop (and shut down) the pool for *jobs* — it broke or is stale."""
    pool = _POOLS.pop(jobs, None)
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def shutdown_pools() -> None:
    """Shut down every warm pool (tests, interpreter teardown)."""
    for jobs in list(_POOLS):
        _retire_pool(jobs)


atexit.register(shutdown_pools)


@dataclass
class InlineBackend:
    """Runs sweep cells sequentially in the current process.

    The degenerate backend: same interface as
    :class:`ProcessPoolBackend`, same outcome payloads, no pool, and no
    mid-cell snapshots.  :func:`backend_for` picks it for one worker.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def run(
        self,
        simulator: Simulator,
        cells: Sequence[CellTask],
        on_complete: Callable[[int, dict[str, Any]], None] | None = None,
        *,
        observer: EngineObserver | None = None,
    ) -> dict[int, dict[str, Any]]:
        """Execute every cell in order; returns ``{cell index: payload}``.

        Each cell is announced just before it runs, so an observer that
        raises from ``cell_started`` stops the sweep at a cell boundary.
        """
        if observer is None:
            observer = NULL_OBSERVER
        outcomes: dict[int, dict[str, Any]] = {}
        for index, task in enumerate(cells):
            observer.cell_started(task)
            outcome = run_cell(simulator, task, retry=self.retry, observer=observer)
            payload = outcome.to_payload()
            outcomes[index] = payload
            if on_complete is not None:
                on_complete(index, payload)
        return outcomes


@dataclass
class ProcessPoolBackend:
    """Runs sweep cells across a warm process pool, containing failures.

    Args:
        jobs: worker process count (>= 1; 1 still uses a pool of one,
            callers that want true serial execution pick
            :class:`InlineBackend`).
        retry: per-cell transient-failure policy, applied *inside* each
            worker.
        batch: cells per pool dispatch; None auto-sizes to roughly four
            batches per worker (see :func:`auto_batch_size`).
    """

    jobs: int
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    batch: int | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.batch is not None and self.batch < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {self.batch}")

    def run(
        self,
        simulator: Simulator,
        cells: Sequence[CellTask],
        on_complete: Callable[[int, dict[str, Any]], None] | None = None,
        *,
        observer: EngineObserver | None = None,
    ) -> dict[int, dict[str, Any]]:
        """Execute every cell; returns ``{cell index: outcome payload}``.

        Args:
            simulator: the configured simulator (shipped to workers
                once per batch).
            cells: :class:`CellTask`\\ s in sweep order.
            on_complete: called with ``(cell index, outcome payload)``
                as each cell finishes, in completion order — used for
                incremental checkpoint-manifest writes.
            observer: receives ``cell_started`` for every cell before
                dispatch and ``cell_finished`` parent-side per cell.
        """
        outcomes: dict[int, dict[str, Any]] = {}
        if not cells:
            return outcomes
        if observer is None:
            observer = NULL_OBSERVER
        for task in cells:
            observer.cell_started(task)
        retry = _picklable_retry(self.retry)

        def finish(index: int, payload: dict[str, Any]) -> None:
            outcomes[index] = payload
            observer.cell_finished(
                cells[index], CellOutcome.from_payload(cells[index], payload)
            )
            if on_complete is not None:
                on_complete(index, payload)

        def run_local(index: int) -> None:
            task = cells[index]
            finish(
                index,
                _terminal_payload(
                    simulator, task.spec, task.scheme_key, task.trace, retry
                ),
            )

        # The simulator and retry policy ride on every batch; if they
        # cannot cross the pool boundary, nothing can.
        try:
            pickle.dumps((simulator, retry))
        except Exception:
            for index in range(len(cells)):
                run_local(index)
            return outcomes

        spec_memo: dict[int, bytes | None] = {}

        def spec_blob(spec: Any) -> bytes | None:
            """Pickle *spec* once per distinct object (None: unshippable)."""
            memo_key = id(spec)
            if memo_key not in spec_memo:
                try:
                    spec_memo[memo_key] = pickle.dumps(spec)
                except Exception:
                    spec_memo[memo_key] = None
            return spec_memo[memo_key]

        # Name every columnar or column-backed trace referenced by a
        # shippable cell in shared memory (moving in, once, those no
        # live segment holds yet); cells then name their trace by index
        # instead of shipping its bytes per batch.  Other traces ship
        # pickled, so a lazy file's decode errors stay inside its cells.
        arena_index: dict[int, int] = {}
        unique_columnar: list[ColumnarTrace] = []
        for task in cells:
            trace = task.trace
            if (
                isinstance(trace, ColumnarTrace)
                or (isinstance(trace, Trace) and trace.columns is not None)
            ) and id(trace) not in arena_index and spec_blob(task.spec) is not None:
                arena_index[id(trace)] = len(unique_columnar)
                unique_columnar.append(ColumnarTrace.from_trace(trace))
        arena = TraceArena.create(unique_columnar) if unique_columnar else None
        if arena is None:
            arena_index.clear()

        local: list[int] = []
        remote: list[tuple[int, dict[str, Any]]] = []
        trace_picklable: dict[int, bool] = {}
        for index, task in enumerate(cells):
            blob = spec_blob(task.spec)
            if blob is None:
                local.append(index)
                continue
            cell: dict[str, Any] = {"spec": blob, "key": task.scheme_key}
            trace_id = id(task.trace)
            if trace_id in arena_index:
                cell["trace_index"] = arena_index[trace_id]
            else:
                shippable = trace_picklable.get(trace_id)
                if shippable is None:
                    try:
                        pickle.dumps(task.trace)
                        shippable = True
                    except Exception:
                        shippable = False
                    trace_picklable[trace_id] = shippable
                if not shippable:
                    local.append(index)
                    continue
                cell["trace"] = task.trace
            remote.append((index, cell))

        if remote:
            self._run_remote(simulator, retry, arena, remote, run_local, finish)
        for index in local:
            run_local(index)
        return outcomes

    def _run_remote(
        self,
        simulator: Simulator,
        retry: RetryPolicy,
        arena: TraceArena | None,
        remote: list[tuple[int, dict[str, Any]]],
        run_local: Callable[[int], None],
        finish: Callable[[int, dict[str, Any]], None],
    ) -> None:
        """Dispatch shippable cells in batches over the warm pool."""
        batch_size = self.batch or auto_batch_size(len(remote), self.jobs)
        batches = group_into_batches(remote, batch_size)

        def payload_for(batch: list[tuple[int, dict[str, Any]]]) -> dict[str, Any]:
            payload = {
                "simulator": simulator,
                "retry": retry,
                "cells": [cell for _, cell in batch],
            }
            shared = {cell["trace_index"] for _, cell in batch if "trace_index" in cell}
            if shared:
                payload["arena"] = arena.descriptor_for(shared)
            return payload

        futures: dict[Any, list[tuple[int, dict[str, Any]]]] = {}
        submitted = 0
        pool_broken = False
        try:
            pool = _warm_pool(self.jobs)
            for batch in batches:
                futures[pool.submit(execute_batch, payload_for(batch))] = batch
                submitted += 1
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            # The pool cannot be created or fed at all; whatever made it
            # in drains below, the rest runs in the parent.
            pool_broken = True

        for future in as_completed(futures):
            batch = futures[future]
            try:
                payloads = future.result()
                if len(payloads) != len(batch):
                    raise RuntimeError("pool worker returned a short batch")
            except (KeyboardInterrupt, SystemExit):
                raise
            except BrokenProcessPool:
                # A worker died mid-batch: re-run the batch's cells in
                # the parent (ordinary containment applies there) and
                # retire the pool so the next sweep gets a fresh one.
                pool_broken = True
                for index, _ in batch:
                    run_local(index)
            except Exception:
                for index, _ in batch:
                    run_local(index)
            else:
                for (index, _), payload in zip(batch, payloads):
                    finish(index, payload)

        for batch in batches[submitted:]:
            for index, _ in batch:
                run_local(index)
        if pool_broken:
            _retire_pool(self.jobs)


def backend_for(
    jobs: int, retry: RetryPolicy, batch: int | None = None
) -> InlineBackend | ProcessPoolBackend:
    """Select the execution backend for a worker count."""
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return InlineBackend(retry=retry)
    return ProcessPoolBackend(jobs=jobs, retry=retry, batch=batch)
