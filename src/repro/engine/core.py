"""The engine: one instrumented executor behind every entry point.

:class:`Engine` runs an :class:`~repro.engine.plan.ExecutionPlan` to an
:class:`~repro.core.experiment.ExperimentResult`, composing the policy
middleware (retry, checkpoint, result cache) around the single
:func:`~repro.engine.backends.run_cell` unit and fanning cells out
through a configured backend.  Every (scheme × trace) grid runs as
``Engine(...).run(ExecutionPlan(...))`` — ``repro run``, the paper
artifacts, the bench harness and the simulation service alike — so
there is exactly one retry loop, one checkpoint-manifest write site,
and one cache lookup path in the execution stack, and they all emit the
same :class:`~repro.engine.observer.EngineObserver` events.  A
fail-fast sweep with no retries is
``Engine(strict=True, retry=RetryPolicy(max_attempts=1))``.

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
  snapshots remain a serial-only refinement;
* ``KeyboardInterrupt``/``SystemExit`` always propagate so an
  interrupted checkpointed run can resume later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.experiment import CellFailure, ExperimentResult
from repro.core.result import SimulationResult, merge_results
from repro.core.simulator import SimulationContext
from repro.errors import CheckpointError, ConfigurationError, ReproError
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import (
    CheckpointManager,
    result_from_json,
    result_to_json,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.stream import Trace

from repro.engine.backends import ProcessPoolBackend, run_cell
from repro.engine.observer import NULL_OBSERVER, EngineObserver
from repro.engine.plan import (
    CellTask,
    ExecutionPlan,
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


@dataclass
class Engine:
    """Executes plans under a composable policy stack.

    Args:
        retry: transient-failure retry policy (one per-cell loop, shared
            by every backend).
        strict: re-raise the first permanent cell failure instead of
            recording it and continuing.
        checkpoint: attach a checkpoint directory to snapshot progress.
        checkpoint_every: records between mid-cell snapshots (serial
            execution only; pooled resume is cell-granular).
        resume: continue from the checkpoint directory's manifest
            instead of starting over (requires ``checkpoint``).
        jobs: worker processes; ``1`` runs cells serially in-process,
            ``> 1`` fans independent cells across a
            :class:`~repro.engine.backends.ProcessPoolBackend`.
        batch: cells per pool dispatch (pooled execution only; must be
            >= 1 whatever ``jobs`` is); None auto-sizes from
            cells-per-worker.
        result_cache: on-disk content-addressed cache; cells whose
            (trace fingerprint, scheme, options, simulator config) key
            is already cached are skipped entirely.
        observer: engine event hook; compose several with
            :class:`~repro.engine.observer.ObserverGroup`.
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

        outcome = ExperimentResult()
        recorder = self._prepare_checkpoint(plan, outcome)
        observer.plan_started(plan)

        # Cells already restored from the checkpoint manifest are done.
        cells = [
            task
            for task in plan.cells()
            if task.trace_name not in outcome.results.get(task.scheme_key, {})
        ]

        if self.jobs > 1:
            self._run_pooled(plan, cells, outcome, recorder, observer)
        else:
            for task in cells:
                observer.cell_started(task)
                self._run_cell_guarded(plan, task, outcome, recorder, observer)

        observer.plan_finished(plan, outcome)
        return outcome

    # ------------------------------------------------------------------
    # Result cache middleware
    # ------------------------------------------------------------------

    def _cache_lookup(
        self, plan: ExecutionPlan, task: CellTask, observer: EngineObserver
    ) -> SimulationResult | None:
        if self.result_cache is None:
            return None
        cache_id = plan.cache_id(task.spec, task.trace)
        if cache_id is None:
            return None
        result = self.result_cache.get(cache_id)
        if result is None:
            observer.cache_miss(task)
            return None
        observer.cache_hit(task)
        # Entries are content-addressed; report under this sweep's
        # labels regardless of how the storing sweep named things.
        result.scheme = task.scheme_key
        result.trace_name = task.trace_name
        return result

    def _cache_store(
        self, plan: ExecutionPlan, task: CellTask, result: SimulationResult
    ) -> None:
        if self.result_cache is None:
            return
        cache_id = plan.cache_id(task.spec, task.trace)
        if cache_id is not None:
            self.result_cache.put(cache_id, result)

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

    # ------------------------------------------------------------------
    # Serial execution
    # ------------------------------------------------------------------

    def _run_cell_guarded(
        self,
        plan: ExecutionPlan,
        task: CellTask,
        outcome: ExperimentResult,
        recorder: ManifestRecorder | None,
        observer: EngineObserver,
    ) -> None:
        cached = self._cache_lookup(plan, task, observer)
        if cached is not None:
            outcome.results.setdefault(task.scheme_key, {})[task.trace_name] = cached
            if recorder is not None:
                recorder.record_completed(
                    task.scheme_key,
                    task.trace_name,
                    result_to_json(cached),
                    clear_cell_state=True,
                )
            return

        attempt = None
        if self.checkpoint is not None:
            attempt = lambda: self._run_cell_checkpointed(plan, task)  # noqa: E731
        cell = run_cell(
            plan.simulator, task, retry=self.retry, observer=observer, attempt=attempt
        )

        if cell.ok:
            outcome.results.setdefault(task.scheme_key, {})[task.trace_name] = (
                cell.result
            )
            self._cache_store(plan, task, cell.result)
            if recorder is not None:
                recorder.record_completed(
                    task.scheme_key,
                    task.trace_name,
                    cell.json_result(),
                    clear_cell_state=True,
                )
            return

        if self.strict:
            raise cell.error
        failure = CellFailure(
            scheme=task.scheme_key,
            trace_name=task.trace_name,
            category=cell.category,
            message=cell.message,
            attempts=cell.attempts,
        )
        outcome.record_failure(failure)
        if recorder is not None:
            recorder.record_failure(failure, clear_cell_state=True)

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

        # Windows of an in-memory trace are column slices, so each runs
        # on the columnar path; chunked stores and lazily read files
        # slice their own records.
        if isinstance(trace, Trace) and trace.in_memory:
            records = ColumnarTrace.from_trace(trace)
        else:
            records = trace.records
        total = len(trace)
        while position < total:
            segment = records[position : position + self.checkpoint_every]
            segment_result = simulator.run(
                segment, protocol, trace_name=task.trace_name, context=context
            )
            accumulated = (
                segment_result
                if accumulated is None
                else merge_results([accumulated, segment_result], name=task.trace_name)
            )
            position += len(segment)
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
            release = getattr(trace, "release_consumed", None)
            if release is not None:
                # Chunked traces drop consumed pages from RSS so the
                # windowed path stays bounded like the streaming one.
                release(position)

        if accumulated is None:  # empty trace: still a valid (zero) result
            accumulated = SimulationResult(scheme=key, trace_name=task.trace_name)
        accumulated.scheme = key
        return accumulated

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------

    def _run_pooled(
        self,
        plan: ExecutionPlan,
        cells: list[CellTask],
        outcome: ExperimentResult,
        recorder: ManifestRecorder | None,
        observer: EngineObserver,
    ) -> None:
        """Fan the pending cells across a process pool.

        Cache hits are resolved in the parent before dispatch; computed
        results stream back as JSON payloads and are checkpointed as
        they complete, but ``outcome`` is assembled in sweep order so a
        pooled run is indistinguishable from a serial one.
        """
        backend = ProcessPoolBackend(jobs=self.jobs, retry=self.retry, batch=self.batch)
        if recorder is not None:
            # Mid-cell snapshots are serial-only; a stale one (e.g. from
            # an interrupted serial run) cannot seed a pool worker.
            self.checkpoint.clear_cell_state()

        completed: dict[int, SimulationResult] = {}
        failures: dict[int, dict[str, Any]] = {}
        cache_hits: set[int] = set()
        pending: list[int] = []
        for position, task in enumerate(cells):
            cached = self._cache_lookup(plan, task, observer)
            if cached is not None:
                completed[position] = cached
                cache_hits.add(position)
            else:
                pending.append(position)

        if pending:
            for position in pending:
                observer.cell_started(cells[position])

            def on_complete(slot: int, payload: dict[str, Any]) -> None:
                if recorder is None or payload["status"] != "ok":
                    return
                task = cells[pending[slot]]
                recorder.record_completed(
                    task.scheme_key, task.trace_name, payload["result"]
                )

            outcomes = backend.run(
                plan.simulator,
                [cells[position] for position in pending],
                on_complete=on_complete,
                observer=observer,
            )
            for slot, payload in outcomes.items():
                position = pending[slot]
                if payload["status"] == "ok":
                    completed[position] = result_from_json(payload["result"])
                else:
                    failures[position] = payload

        for position, task in enumerate(cells):
            if position in completed:
                result = completed[position]
                outcome.results.setdefault(task.scheme_key, {})[task.trace_name] = (
                    result
                )
                if position not in cache_hits:
                    self._cache_store(plan, task, result)
                if recorder is not None:
                    recorder.record_completed(
                        task.scheme_key,
                        task.trace_name,
                        result_to_json(result),
                        flush=False,
                    )
                continue
            payload = failures[position]
            if self.strict:
                raise rehydrate_failure(payload)
            failure = CellFailure(
                scheme=task.scheme_key,
                trace_name=task.trace_name,
                category=payload["category"],
                message=payload["message"],
                attempts=payload["attempts"],
            )
            outcome.record_failure(failure)
            if recorder is not None:
                recorder.record_failure(failure, flush=False)
        if recorder is not None:
            recorder.save()
