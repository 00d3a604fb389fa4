"""The unified engine: plans, policies, backends, observers.

These tests pin the engine's contracts directly — the entry-point
suites (``test_runner_resilient``, ``test_runner_parallel``,
``test_service_scheduler``, ``test_cli``) exercise the same machinery
through its public facades.
"""

import pytest

from repro.core.simulator import Simulator
from repro.engine import (
    NULL_OBSERVER,
    CellOutcome,
    CellTask,
    Engine,
    EngineMetrics,
    EngineObserver,
    ExecutionPlan,
    InlineBackend,
    ObserverGroup,
    ProcessPoolBackend,
    RetryPolicy,
    rehydrate_failure,
    run_cell,
    run_with_retry,
)
from repro.errors import ConfigurationError, InvariantViolation, TransientError
from repro.runner.cache import ResultCache
from repro.runner.faults import FlakyTrace
from repro.workloads.registry import make_trace


def no_sleep_policy(**kwargs) -> RetryPolicy:
    kwargs.setdefault("sleep", lambda _delay: None)
    return RetryPolicy(**kwargs)


@pytest.fixture
def traces():
    return [
        make_trace("pops", length=1200, seed=1),
        make_trace("thor", length=1200, seed=2),
    ]


# ----------------------------------------------------------------------
# ExecutionPlan
# ----------------------------------------------------------------------

def test_plan_cells_are_scheme_major_with_sequential_indexes(traces):
    plan = ExecutionPlan(traces=traces, schemes=["dir0b", "wti"])
    cells = plan.cells()
    assert [(c.scheme_key, c.trace_name) for c in cells] == [
        ("dir0b", "pops"),
        ("dir0b", "thor"),
        ("wti", "pops"),
        ("wti", "thor"),
    ]
    assert [c.index for c in cells] == [0, 1, 2, 3]


def test_plan_rejects_empty_axes(traces):
    with pytest.raises(ConfigurationError):
        ExecutionPlan(traces=[], schemes=["dir0b"]).validate()
    with pytest.raises(ConfigurationError):
        ExecutionPlan(traces=traces, schemes=[]).validate()


def test_plan_fingerprint_matches_manifest_identity(traces):
    plan = ExecutionPlan(
        traces=traces,
        schemes=["dir1nb", ("dirinb", {"num_pointers": 2})],
        simulator=Simulator(sharer_key="cpu"),
    )
    assert plan.fingerprint() == {
        "schemes": ["dir1nb", "dir2nb"],
        "traces": ["pops", "thor"],
        "sharer_key": "cpu",
    }


def test_trace_fingerprint_computed_once_per_plan(traces, monkeypatch):
    """The expensive half of the cache key is memoized per plan.

    Four schemes referencing the same trace must hash its records once,
    not once per (scheme x trace) cell.
    """
    import repro.engine.plan as plan_module

    calls = []
    real = plan_module.trace_fingerprint

    def counting(trace):
        calls.append(trace)
        return real(trace)

    monkeypatch.setattr(plan_module, "trace_fingerprint", counting)
    plan = ExecutionPlan(
        traces=[traces[0]], schemes=["dir0b", "dir1nb", "wti", "dragon"]
    )
    ids = [plan.cache_id(spec, traces[0]) for spec in plan.schemes]
    assert len(calls) == 1
    assert len(set(ids)) == len(ids)  # distinct schemes, distinct keys


def test_machine_size_read_once_per_run(tmp_path, monkeypatch):
    """A lazily read file is scanned once for its sharers, not per cell.

    Four schemes over one file: one sizing pass plus one simulation pass
    per scheme.
    """
    from repro.trace.io import LazyTraceFile, _LazyRecords, write_trace_file

    path = tmp_path / "pops.trace"
    write_trace_file(make_trace("pops", length=2000, seed=5), path)
    passes = []
    real = _LazyRecords.__iter__

    def counting(records):
        passes.append(records.path)
        return real(records)

    monkeypatch.setattr(_LazyRecords, "__iter__", counting)
    schemes = ["dir1nb", "wti", "dir0b", "dragon"]
    outcome = Engine().run(
        ExecutionPlan(traces=[LazyTraceFile(path, "pops")], schemes=schemes)
    )
    assert outcome.ok
    assert len(passes) == 1 + len(schemes)
    monkeypatch.undo()
    plain = Engine().run(
        ExecutionPlan(traces=[make_trace("pops", length=2000, seed=5)], schemes=schemes)
    )
    for scheme in schemes:
        assert outcome.result(scheme, "pops") == plain.result(scheme, "pops")


def test_uncacheable_cell_yields_none_cache_id(traces):
    """A trace whose fingerprint blows up disables caching, quietly."""

    class ExplodingTrace:
        name = "boom"

        @property
        def records(self):
            raise OSError("disk on fire")

        def __len__(self):
            return 0

    plan = ExecutionPlan(traces=[ExplodingTrace()], schemes=["dir0b"])
    assert plan.cache_id("dir0b", plan.traces[0]) is None


# ----------------------------------------------------------------------
# CellOutcome transport payloads
# ----------------------------------------------------------------------

def test_outcome_payload_round_trip_ok(traces):
    task = ExecutionPlan(traces=[traces[0]], schemes=["dir0b"]).cells()[0]
    outcome = run_cell(Simulator(), task)
    assert outcome.ok and outcome.attempts == 1
    payload = outcome.to_payload()
    assert payload["status"] == "ok"
    rebuilt = CellOutcome.from_payload(task, payload, source="checkpoint")
    assert rebuilt.live_result() == outcome.result
    assert rebuilt.source == "checkpoint"


def test_outcome_payload_round_trip_error(traces):
    task = ExecutionPlan(traces=[traces[0]], schemes=["dir0b"]).cells()[0]
    outcome = CellOutcome(
        task=task,
        status="error",
        category="TraceFormatError",
        message="garbage",
        attempts=2,
    )
    rebuilt = CellOutcome.from_payload(task, outcome.to_payload())
    assert not rebuilt.ok
    assert (rebuilt.category, rebuilt.message, rebuilt.attempts) == (
        "TraceFormatError", "garbage", 2,
    )


def test_rehydrate_failure_maps_category_to_exception_class():
    exc = rehydrate_failure({"category": "InvariantViolation", "message": "bad"})
    assert isinstance(exc, InvariantViolation) and str(exc) == "bad"
    exc = rehydrate_failure({"category": "ValueError", "message": "builtin"})
    assert isinstance(exc, ValueError)
    exc = rehydrate_failure({"category": "NoSuchThing", "message": "?"})
    from repro.errors import ReproError

    assert isinstance(exc, ReproError)


# ----------------------------------------------------------------------
# run_with_retry / run_cell
# ----------------------------------------------------------------------

def test_run_with_retry_attempt_accounting():
    attempts = {"n": 0}

    def flaky():
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise TransientError("hiccup")
        return "done"

    result, error, made = run_with_retry(flaky, no_sleep_policy(max_attempts=5))
    assert (result, error, made) == ("done", None, 3)

    def permanent():
        raise ValueError("no")

    result, error, made = run_with_retry(permanent, no_sleep_policy(max_attempts=5))
    assert result is None and isinstance(error, ValueError) and made == 1


def test_run_cell_fires_retry_and_finish_events(traces):
    class Recorder(EngineObserver):
        def __init__(self):
            self.retries = []
            self.finished = []

        def cell_retry(self, task, failed_attempts, error, delay):
            self.retries.append((failed_attempts, type(error).__name__, delay))

        def cell_finished(self, task, outcome):
            self.finished.append(outcome)

    recorder = Recorder()
    task = CellTask(
        spec="dir0b",
        scheme_key="dir0b",
        trace=FlakyTrace(traces[0], fail_after=5, fail_times=2),
        trace_name="pops",
    )
    outcome = run_cell(
        Simulator(),
        task,
        retry=no_sleep_policy(max_attempts=3),
        observer=recorder,
    )
    assert outcome.ok and outcome.attempts == 3
    assert [r[0] for r in recorder.retries] == [1, 2]
    assert len(recorder.finished) == 1  # exactly once per cell
    assert recorder.finished[0] is outcome


# ----------------------------------------------------------------------
# Engine configuration and observers
# ----------------------------------------------------------------------

def test_engine_configuration_validation():
    with pytest.raises(ConfigurationError):
        Engine(checkpoint_every=0)
    with pytest.raises(ConfigurationError):
        Engine(resume=True)
    with pytest.raises(ConfigurationError):
        Engine(jobs=0)
    with pytest.raises(ConfigurationError, match="batch size"):
        Engine(batch=0)  # rejected even for serial sweeps, which never batch
    with pytest.raises(ConfigurationError):
        ProcessPoolBackend(jobs=0)


def test_metrics_observe_serial_run_and_cache_round_trip(tmp_path, traces):
    cache = ResultCache(tmp_path / "cache")
    plan = ExecutionPlan(traces=traces, schemes=["dir0b", "wti"])

    cold = EngineMetrics()
    first = Engine(result_cache=cache, observer=cold).run(plan)
    assert first.ok
    snapshot = cold.snapshot()
    assert snapshot["cells_started"] == 4
    assert snapshot["cells_ok"] == 4
    assert snapshot["cache_misses"] == 4
    assert "cache_hits" not in snapshot
    assert snapshot["sim_seconds"] > 0

    warm = EngineMetrics()
    second = Engine(result_cache=cache, observer=warm).run(
        ExecutionPlan(traces=traces, schemes=["dir0b", "wti"])
    )
    assert warm.get("cache_hits") == 4
    assert warm.get("cells_ok") == 0  # nothing simulated
    for scheme in ("dir0b", "wti"):
        for trace in traces:
            assert second.results[scheme][trace.name] == (
                first.results[scheme][trace.name]
            )


def test_observer_group_fans_out_and_null_observer_is_silent(traces):
    seen = []

    class Tap(EngineObserver):
        def __init__(self, tag):
            self.tag = tag

        def plan_started(self, plan):
            seen.append((self.tag, "start"))

        def plan_finished(self, plan, result):
            seen.append((self.tag, "finish"))

    plan = ExecutionPlan(traces=[traces[0]], schemes=["dir0b"])
    Engine(observer=ObserverGroup([Tap("a"), Tap("b")])).run(plan)
    assert seen == [("a", "start"), ("b", "start"), ("a", "finish"), ("b", "finish")]
    # NULL_OBSERVER accepts every event silently.
    NULL_OBSERVER.cell_started(None)
    NULL_OBSERVER.cell_finished(None, None)


def test_metrics_observe_pooled_run(traces):
    metrics = EngineMetrics()
    plan = ExecutionPlan(traces=traces, schemes=["dir0b", "wti"])
    outcome = Engine(jobs=2, observer=metrics).run(plan)
    assert outcome.ok
    assert metrics.get("cells_started") == 4
    assert metrics.get("cells_ok") == 4


def test_strict_serial_reraises_original_exception_object(traces):
    sentinel = InvariantViolation("the very one")

    def bad_factory(num_caches):
        raise sentinel

    bad_factory.scheme_key = "broken"
    plan = ExecutionPlan(traces=[traces[0]], schemes=[bad_factory])
    with pytest.raises(InvariantViolation) as excinfo:
        Engine(strict=True).run(plan)
    assert excinfo.value is sentinel


def test_inline_backend_matches_pool_backend(traces):
    plan = ExecutionPlan(traces=traces, schemes=["dir0b", "wti"])
    cells = plan.cells()
    simulator = Simulator()
    inline = InlineBackend().run(simulator, cells)
    pooled = ProcessPoolBackend(jobs=2).run(simulator, cells)
    assert inline == pooled


# ----------------------------------------------------------------------
# Traces stay columns on every engine path
# ----------------------------------------------------------------------

def test_checkpoint_windows_slice_columns(tmp_path, traces):
    from repro.runner.checkpoint import CheckpointManager

    plan = ExecutionPlan(traces=traces, schemes=["dir0b", "dirnnb"])
    windowed = Engine(
        checkpoint=CheckpointManager(tmp_path / "ckpt"), checkpoint_every=500
    ).run(plan)
    assert windowed.ok
    assert all(trace.columns is not None for trace in traces)
    assert windowed.results == Engine().run(plan).results


def test_pool_ships_column_backed_traces_through_the_arena(monkeypatch, traces):
    from repro.engine import backends

    packed = []
    real = backends.TraceArena.create

    def create(cls, columnar):
        packed.extend(columnar)
        return real(columnar)

    monkeypatch.setattr(backends.TraceArena, "create", classmethod(create))
    cells = ExecutionPlan(traces=traces, schemes=["dir0b", "wti"]).cells()
    pooled = ProcessPoolBackend(jobs=2).run(Simulator(), cells)
    assert all(payload["status"] == "ok" for payload in pooled.values())
    assert len(packed) == len(traces)
    assert all(columns is trace.columns for columns, trace in zip(packed, traces))
    assert pooled == InlineBackend().run(Simulator(), cells)


def test_removed_parallel_shim_names_are_gone():
    import importlib

    # Sweep entry points, shims and fabric duplicates that were deleted,
    # not aliased.
    removed = [
        ("repro.runner", "ParallelExecutor"),
        ("repro.runner", "no_such_export"),
        ("repro", "Experiment"),
        ("repro", "run_experiment"),
        ("repro", "ResilientExperiment"),
        ("repro", "run_resilient_sweep"),
        ("repro.runner", "ResilientExperiment"),
        ("repro.core", "Experiment"),
        ("repro.engine", "ProgressObserver"),
        ("repro.fabric", "Reaper"),
        ("repro.fabric", "DurableJobQueue"),
    ]
    for package, name in removed:
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(package), name)
    for module in (
        "repro.runner.parallel",
        "repro.runner.resilient",
        "repro.fabric.reaper",
        "repro.fabric.bridge",
    ):
        with pytest.raises(ImportError):
            __import__(module)
