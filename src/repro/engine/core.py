"""The engine: one instrumented executor behind every entry point.

:class:`Engine` runs an :class:`~repro.engine.plan.ExecutionPlan` to an
:class:`~repro.core.experiment.ExperimentResult`, composing the policy
middleware (retry, checkpoint, result cache, in-flight coalescing)
around the single :func:`~repro.engine.backends.run_cell` unit and
fanning cells out through a backend.  Every (scheme × trace) grid runs
as ``Engine(...).run(ExecutionPlan(...))`` — ``repro run``, the paper
artifacts, the bench harness and each simulation-service job alike — so
there is exactly one retry loop, one checkpoint-manifest write site,
and one cache lookup path in the execution stack, and every resolved
cell reaches the observer's ``cell_finished`` with its
:attr:`~repro.engine.plan.CellOutcome.source`.  A fail-fast sweep with
no retries is ``Engine(strict=True, retry=RetryPolicy(max_attempts=1))``.

With no backend and ``jobs == 1`` the engine runs each cell itself,
snapshotting it mid-cell when checkpointing; otherwise the cells go to
a backend (inline, a process pool, or the fabric fleet).  Either way a
sweep waits on cells another sweep sharing the cache is computing only
after computing its own, so two sweeps never wait on each other.

Behavioral contract (inherited bit-for-bit from the pre-engine stacks):

* results are assembled in sweep order (scheme-major) regardless of
  completion order, so serial, pooled, and resumed runs are
  indistinguishable;
* permanent failures are contained as
  :class:`~repro.core.experiment.CellFailure` records unless ``strict``
  — strict serial runs re-raise the *original* exception object, strict
  pooled runs rehydrate the first failure in sweep order;
* checkpoint manifests written before the engine existed resume
  cleanly (same fingerprint, same JSON shapes), and mid-cell windowed
  snapshots remain a refinement of the engine's own serial execution
  (backends are cell-granular);
* ``KeyboardInterrupt``/``SystemExit`` — and whatever an observer
  raises from ``cell_started`` — always propagate, so an interrupted
  checkpointed run can resume later; claims the run still holds are
  abandoned on the way out.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterable, Iterator

from repro.core.experiment import CellFailure, ExperimentResult
from repro.core.result import SimulationResult, merge_results
from repro.core.simulator import SimulationContext
from repro.errors import CheckpointError, ConfigurationError, ReproError
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import CheckpointManager, result_from_json
from repro.trace.columnar import COLUMN_FORMATS, ColumnarTrace, columnar_chunks

from repro.engine.backends import ProcessPoolBackend, run_cell
from repro.engine.observer import NULL_OBSERVER, EngineObserver
from repro.engine.plan import (
    CellOutcome,
    CellTask,
    ExecutionPlan,
    UnbuiltTrace,
    build_protocol_for_cell,
)
from repro.engine.policies import (
    DEFAULT_CHECKPOINT_EVERY,
    ManifestRecorder,
    RetryPolicy,
)


def rehydrate_failure(payload: dict[str, Any]) -> Exception:
    """Reconstruct a worker-reported failure as a raisable exception.

    Used by ``strict`` pooled sweeps: the original exception object
    never crosses the process boundary, so the category name is mapped
    back to a class from :mod:`repro.errors` (or builtins), falling back
    to :class:`~repro.errors.ReproError`.
    """
    import builtins

    from repro import errors as errors_module

    category = payload.get("category", "ReproError")
    cls = getattr(errors_module, category, None) or getattr(builtins, category, None)
    if not (isinstance(cls, type) and issubclass(cls, Exception)):
        cls = ReproError
    try:
        return cls(payload.get("message", ""))
    except Exception:
        return ReproError(f"{category}: {payload.get('message', '')}")


def _failure(task: CellTask, cell: CellOutcome) -> CellFailure:
    """The contained-failure record of one failed cell."""
    return CellFailure(
        scheme=task.scheme_key,
        trace_name=task.trace_name,
        category=cell.category,
        message=cell.message,
        attempts=cell.attempts,
    )


def _labelled(result: SimulationResult, task: CellTask) -> SimulationResult:
    """A cached or coalesced result, filed under this sweep's labels."""
    result.scheme = task.scheme_key
    result.trace_name = task.trace_name
    return result


def _windows(chunks: Iterable[ColumnarTrace], size: int) -> Iterator[ColumnarTrace]:
    """Cut a chunk stream into consecutive windows of *size* records.

    A window inside one chunk is a slice of it.  A window that spans
    chunks is copied out of them as they stream past, so each chunk is
    dropped before the next one decodes.
    """
    carried: list[array] = []  # the columns of a window begun earlier
    for chunk in chunks:
        offset = 0
        while offset < len(chunk):
            held = len(carried[0]) if carried else 0
            take = min(size - held, len(chunk) - offset)
            if take == size:
                yield chunk[offset : offset + size]
            else:
                carried = carried or [array(fmt) for _, fmt in COLUMN_FORMATS]
                piece = chunk[offset : offset + take]
                for buffer, (column, _) in zip(carried, COLUMN_FORMATS):
                    buffer.frombytes(memoryview(getattr(piece, column)).cast("B"))
                del piece  # a view of the chunk
                if held + take == size:
                    yield ColumnarTrace("window", *carried)
                    carried = []
            offset += take
        del chunk  # drop it before the next one decodes
    if carried:
        yield ColumnarTrace("window", *carried)


def _build_trace(task: CellTask) -> CellOutcome | None:
    """Give *task* its built trace; an error outcome if it cannot be built."""
    try:
        task.trace = task.trace.load()
    except Exception as exc:
        return CellOutcome(
            task=task,
            status="error",
            category=type(exc).__name__,
            message=str(exc),
            error=exc,
        )
    return None


@dataclass
class Engine:
    """Executes plans under a composable policy stack.

    Args:
        retry: transient-failure retry policy (one per-cell loop, shared
            by every backend).
        strict: re-raise the first permanent cell failure instead of
            recording it and continuing.
        checkpoint: attach a checkpoint directory to snapshot progress.
        checkpoint_every: records between mid-cell snapshots (the
            engine's own serial execution only; backends are
            cell-granular).
        resume: continue from the checkpoint directory's manifest
            instead of starting over (requires ``checkpoint``).
        jobs: worker processes when no ``backend`` is given; ``1`` runs
            cells serially in-process, ``> 1`` fans independent cells
            across a :class:`~repro.engine.backends.ProcessPoolBackend`.
        batch: cells per pool dispatch (pooled execution only; must be
            >= 1 whatever ``jobs`` is); None auto-sizes from
            cells-per-worker.
        result_cache: on-disk content-addressed cache; cells whose
            (trace fingerprint, scheme, options, simulator config) key
            is already cached, or being computed by another sweep
            sharing the cache, are not simulated again.
        observer: engine event hook; compose several with
            :class:`~repro.engine.observer.ObserverGroup`.
        backend: an :class:`~repro.engine.backends.InlineBackend`,
            :class:`~repro.engine.backends.ProcessPoolBackend` or
            :class:`~repro.fabric.queue.FleetBackend`; None lets ``jobs``
            choose.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    strict: bool = False
    checkpoint: CheckpointManager | None = None
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    resume: bool = False
    jobs: int = 1
    batch: int | None = None
    result_cache: ResultCache | None = None
    observer: EngineObserver = field(default_factory=lambda: NULL_OBSERVER)
    backend: Any = None

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.resume and self.checkpoint is None:
            raise ConfigurationError("resume requires a checkpoint directory")
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.batch is not None and self.batch < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {self.batch}")

    # ------------------------------------------------------------------

    def run(self, plan: ExecutionPlan) -> ExperimentResult:
        """Run every cell of *plan*, containing failures; partial results."""
        plan.validate()
        observer = self.observer
        plan = self._resolve_traces(plan)

        outcome = ExperimentResult()
        recorder = self._prepare_checkpoint(plan, outcome)
        observer.plan_started(plan)

        # Cells already restored from the checkpoint manifest are done.
        cells: list[CellTask] = []
        for task in plan.cells():
            restored = outcome.results.get(task.scheme_key, {}).get(task.trace_name)
            if restored is None:
                cells.append(task)
            else:
                observer.cell_finished(
                    task,
                    CellOutcome(
                        task=task, status="ok", result=restored, source="checkpoint"
                    ),
                )

        backend = self.backend
        if backend is None and self.jobs > 1:
            backend = ProcessPoolBackend(
                jobs=self.jobs, retry=self.retry, batch=self.batch
            )
        self._execute(plan, cells, outcome, recorder, observer, backend)

        observer.plan_finished(plan, outcome)
        return outcome

    def _resolve_traces(self, plan: ExecutionPlan) -> ExecutionPlan:
        """*plan* with each trace spec (a trace with ``build()``) resolved.

        Specs resolve through the cache's fingerprint memo or, with no
        cache, are built for their names; one that cannot be resolved
        fails only its own cells.  The caller's plan keeps its specs.
        """
        if not any(hasattr(trace, "build") for trace in plan.traces):
            return plan
        traces = []
        for trace in plan.traces:
            if hasattr(trace, "build"):
                try:
                    if self.result_cache is None:
                        built = trace.build()
                        trace = UnbuiltTrace(trace, built.name, trace=built)
                    else:
                        name, fingerprint, built = (
                            self.result_cache.fingerprints.lookup(trace)
                        )
                        trace = UnbuiltTrace(trace, name, fingerprint, built)
                except Exception as exc:
                    trace = UnbuiltTrace(trace, trace.label, error=exc)
            traces.append(trace)
        resolved = copy.copy(plan)
        resolved.traces = traces
        return resolved

    # ------------------------------------------------------------------
    # Checkpoint middleware
    # ------------------------------------------------------------------

    def _prepare_checkpoint(
        self, plan: ExecutionPlan, outcome: ExperimentResult
    ) -> ManifestRecorder | None:
        if self.checkpoint is None:
            return None
        fingerprint = plan.fingerprint()
        if self.resume and self.checkpoint.exists():
            manifest = self.checkpoint.load_manifest(fingerprint)
            # Restore in sweep order (the manifest JSON is key-sorted) so
            # a resumed result is indistinguishable from a fresh one.
            for key in plan.scheme_keys():
                per_trace = manifest["completed"].get(key, {})
                for trace in plan.traces:
                    if trace.name in per_trace:
                        outcome.results.setdefault(key, {})[trace.name] = (
                            result_from_json(per_trace[trace.name])
                        )
            # Previously failed cells are retried on resume; drop them.
            manifest["failures"] = []
            return ManifestRecorder(self.checkpoint, manifest)
        manifest = self.checkpoint.new_manifest(fingerprint)
        self.checkpoint.clear_cell_state()
        recorder = ManifestRecorder(self.checkpoint, manifest)
        recorder.save()
        return recorder

    def _run_cell_checkpointed(
        self, plan: ExecutionPlan, task: CellTask
    ) -> SimulationResult:
        """Run one cell window by window, snapshotting after each window.

        Always restarts from the on-disk snapshot (never in-memory
        state), so a retry after a mid-window fault resumes from the
        last consistent snapshot rather than from a tainted protocol.
        """
        simulator = plan.simulator
        key = task.scheme_key
        trace = task.trace
        state = self.checkpoint.load_cell_state()
        if (
            state is not None
            and state.get("scheme") == key
            and state.get("trace_name") == task.trace_name
        ):
            protocol = state["protocol"]
            context: SimulationContext = state["context"]
            accumulated: SimulationResult | None = state["accumulated"]
            position: int = state["records_done"]
            if context.records_done != position:
                raise CheckpointError(
                    f"cell snapshot inconsistent: context processed "
                    f"{context.records_done} records but snapshot claims {position}"
                )
            chunk_position = state.get("chunk_position")
            if chunk_position is not None and hasattr(trace, "position_of"):
                # Chunked traces also record (chunk index, intra-chunk
                # offset): resume verifies the mapping so a snapshot
                # taken against a re-chunked or edited .ctrc file can
                # never silently resume at the wrong byte.
                expected = trace.position_of(position)
                if tuple(chunk_position) != expected:
                    raise CheckpointError(
                        f"cell snapshot inconsistent: record {position} maps "
                        f"to chunk position {expected} in {trace.path} but "
                        f"snapshot claims {tuple(chunk_position)}"
                    )
        else:
            protocol = build_protocol_for_cell(simulator, task.spec, trace)
            context = SimulationContext()
            accumulated = None
            position = 0

        # One pass over the trace's chunks from the snapshot position:
        # each chunk decodes (or a lazily read file is read) once per
        # attempt, and every window runs on the columnar path.
        windows = _windows(columnar_chunks(trace, position), self.checkpoint_every)
        for window in windows:
            segment_result = simulator.run(
                window, protocol, trace_name=task.trace_name, context=context
            )
            accumulated = (
                segment_result
                if accumulated is None
                else merge_results([accumulated, segment_result], name=task.trace_name)
            )
            position += len(window)
            del window  # drop it before the next one is cut
            snapshot = {
                "scheme": key,
                "trace_name": task.trace_name,
                "records_done": position,
                "protocol": protocol,
                "context": context,
                "accumulated": accumulated,
            }
            if hasattr(trace, "position_of"):
                snapshot["chunk_position"] = trace.position_of(position)
            self.checkpoint.save_cell_state(snapshot)

        if accumulated is None:  # empty trace: still a valid (zero) result
            accumulated = SimulationResult(scheme=key, trace_name=task.trace_name)
        accumulated.scheme = key
        return accumulated

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(
        self,
        plan: ExecutionPlan,
        cells: list[CellTask],
        outcome: ExperimentResult,
        recorder: ManifestRecorder | None,
        observer: EngineObserver,
        backend: Any,
    ) -> None:
        """Resolve, compute and collect every pending cell, in that order.

        A cell resolves from the result cache, or is claimed in the
        cache's in-flight table: the owner computes it and every other
        claimant waits for the owner's outcome.  With no backend each
        cell is announced, resolved and computed in turn; a backend gets
        the owned cells once all are resolved.  Each cell is cached and
        checkpointed as it resolves, and a claim is released only after
        its outcome is cached, so a late claimant finds the cache.
        ``outcome`` is assembled in sweep order, so every way of running
        a plan gives the same result.
        """
        cache = self.result_cache
        done: dict[int, CellOutcome] = {}
        claims: dict[int, Any] = {}
        owned: list[int] = []

        def finish(position: int, cell: CellOutcome, computed: bool = False) -> None:
            task = cells[position]
            done[position] = cell
            if cell.ok:
                if computed and task.cache_id is not None:
                    cache.put_json(task.cache_id, cell.json_result())
                if recorder is not None:
                    recorder.record_completed(
                        task.scheme_key, task.trace_name, cell.json_result()
                    )
            elif recorder is not None:
                recorder.record_failure(_failure(task, cell))
            if position in claims:
                cache.inflight.resolve_and_release(
                    claims.pop(position), cell.to_payload()
                )

        def resolve(position: int) -> Any:
            """Settle *position* from the cache or claim it into ``owned``;
            returns the entry to wait on when another sweep computes it."""
            task = cells[position]
            if cache is not None:
                task.cache_id = plan.cache_id(task.spec, task.trace)
            if task.cache_id is not None:
                result = cache.get(task.cache_id)
                if result is not None:
                    observer.cache_hit(task)
                    cell = CellOutcome(
                        task=task,
                        status="ok",
                        result=_labelled(result, task),
                        source="cache",
                    )
                    observer.cell_finished(task, cell)
                    finish(position, cell)
                    return None
                observer.cache_miss(task)
                entry, is_owner = cache.inflight.claim(task.cache_id)
                if not is_owner:
                    return entry
                claims[position] = entry
            owned.append(position)
            return None

        def compute() -> None:
            """Compute the owned cells, here one by one or on the backend."""
            ready = []
            for position in owned:
                trace, failed = cells[position].trace, None
                if isinstance(trace, UnbuiltTrace) and (
                    trace.error or not getattr(backend, "builds_traces", False)
                ):
                    failed = _build_trace(cells[position])
                if failed is None:
                    ready.append(position)
                else:
                    observer.cell_finished(cells[position], failed)
                    finish(position, failed)
            owned.clear()
            if backend is not None:
                backend.run(
                    plan.simulator,
                    [cells[position] for position in ready],
                    lambda slot, payload: finish(
                        ready[slot],
                        CellOutcome.from_payload(cells[ready[slot]], payload),
                        computed=True,
                    ),
                    observer=observer,
                )
                return
            for position in ready:
                task = cells[position]
                attempt = None
                if self.checkpoint is not None:
                    attempt = partial(self._run_cell_checkpointed, plan, task)
                cell = run_cell(
                    plan.simulator,
                    task,
                    retry=self.retry,
                    observer=observer,
                    attempt=attempt,
                )
                if self.strict and not cell.ok:
                    raise cell.error
                finish(position, cell, computed=True)

        waiting = []
        try:
            for position in range(len(cells)):
                if backend is None:
                    observer.cell_started(cells[position])
                entry = resolve(position)
                if entry is not None:
                    waiting.append((position, entry))
                elif backend is None:
                    compute()
            compute()
            for position, entry in waiting:
                task = cells[position]
                while position not in done:
                    entry.wait()
                    if entry.abandoned:
                        # Its owner stopped before computing it.
                        entry = resolve(position)
                        compute()
                        continue
                    payload = entry.outcome
                    if payload["status"] == "ok":
                        result = _labelled(result_from_json(payload["result"]), task)
                        cell = CellOutcome(
                            task=task,
                            status="ok",
                            result=result,
                            attempts=payload.get("attempts", 1),
                            source="coalesced",
                        )
                    else:
                        cell = CellOutcome.from_payload(task, payload, "coalesced")
                    observer.cell_finished(task, cell)
                    finish(position, cell)
        finally:
            for entry in claims.values():
                cache.inflight.abandon_and_release(entry)

        for position, task in enumerate(cells):
            cell = done[position]
            if cell.ok:
                outcome.results.setdefault(task.scheme_key, {})[task.trace_name] = (
                    cell.live_result()
                )
            elif self.strict:
                raise cell.error or rehydrate_failure(cell.to_payload())
            else:
                outcome.record_failure(_failure(task, cell))
