"""Parallel sweep engine and on-disk result cache."""

import json

import pytest

from repro.core.simulator import Simulator
from repro.engine import Engine, ExecutionPlan, RetryPolicy
from repro.errors import ConfigurationError, ProtocolError, TransientError
from repro.protocols.registry import make_protocol
from repro.runner.cache import ResultCache, cache_key, trace_fingerprint
from repro.runner.checkpoint import CheckpointManager
from repro.engine.backends import ProcessPoolBackend
from repro.trace.columnar import ColumnarTrace
from repro.workloads.registry import make_trace

SCHEMES = ["dir1nb", "wti", "dir0b", "dragon"]


def no_sleep_policy(**kwargs) -> RetryPolicy:
    kwargs.setdefault("sleep", lambda _delay: None)
    return RetryPolicy(**kwargs)


@pytest.fixture
def traces():
    return [
        make_trace("pops", length=1500, seed=1),
        make_trace("thor", length=1500, seed=2),
    ]


# ----------------------------------------------------------------------
# Parallel == serial
# ----------------------------------------------------------------------

def test_parallel_sweep_matches_serial(traces):
    serial = Engine().run(ExecutionPlan(traces=traces, schemes=SCHEMES))
    parallel = Engine(jobs=2).run(ExecutionPlan(traces=traces, schemes=SCHEMES))
    assert parallel.results == serial.results


def test_parallel_result_ordering_is_sweep_order(traces):
    outcome = Engine(jobs=2).run(ExecutionPlan(traces=traces, schemes=SCHEMES))
    assert list(outcome.results) == SCHEMES  # scheme-major
    for per_trace in outcome.results.values():
        assert list(per_trace) == [trace.name for trace in traces]


def test_jobs_must_be_positive(traces):
    with pytest.raises(ConfigurationError, match="jobs"):
        Engine(jobs=0)
    with pytest.raises(ConfigurationError, match="jobs"):
        ProcessPoolBackend(jobs=0)


def test_parallel_containment_of_permanent_failures(traces):
    def saboteur(num_caches):
        raise ProtocolError("sabotaged build")

    saboteur.scheme_key = "boom"
    outcome = Engine(jobs=2, retry=no_sleep_policy(max_attempts=2)).run(
        ExecutionPlan(traces=traces, schemes=["dir0b", saboteur, "dragon"])
    )
    failures = outcome.all_failures()
    assert {f.scheme for f in failures} == {"boom"}
    assert all(f.category == "ProtocolError" for f in failures)
    assert set(outcome.results) == {"dir0b", "dragon"}


def test_unpicklable_cells_fall_back_to_in_process(traces):
    # A lambda cannot cross the process boundary; the cell must still
    # run (in the parent) and still be contained on failure.
    bad = lambda num_caches: (_ for _ in ()).throw(ProtocolError("boom"))  # noqa: E731
    bad.scheme_key = "unpicklable"
    outcome = Engine(jobs=2, retry=no_sleep_policy(max_attempts=1)).run(
        ExecutionPlan(traces=traces, schemes=["dir0b", bad])
    )
    assert {f.scheme for f in outcome.all_failures()} == {"unpicklable"}
    assert "dir0b" in outcome.results


def test_parallel_strict_raises_rehydrated_exception(traces):
    def saboteur(num_caches):
        raise ProtocolError("sabotaged build")

    saboteur.scheme_key = "boom"
    with pytest.raises(ProtocolError, match="sabotaged build"):
        Engine(jobs=2, strict=True, retry=no_sleep_policy(max_attempts=1)).run(
            ExecutionPlan(traces=traces, schemes=[saboteur, "dir0b"])
        )


def test_worker_side_retry_recovers_transients(traces):
    class FlakyFactory:
        scheme_key = "flaky"

        def __init__(self):
            self.calls = 0

        def __call__(self, num_caches):
            self.calls += 1
            if self.calls < 3:
                raise TransientError("warming up")
            return make_protocol("dir0b", num_caches)

    outcome = Engine(jobs=2, retry=RetryPolicy(max_attempts=3, backoff_base=0.0)).run(
        ExecutionPlan(traces=traces[:1], schemes=[FlakyFactory()])
    )
    assert not outcome.all_failures()
    assert "flaky" in outcome.results


def test_parallel_checkpoint_manifest_and_resume(tmp_path, traces):
    checkpoint = CheckpointManager(tmp_path / "ckpt")
    first = Engine(jobs=2, checkpoint=checkpoint).run(
        ExecutionPlan(traces=traces, schemes=SCHEMES)
    )
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert set(manifest["completed"]) == set(SCHEMES)
    assert all(len(cells) == len(traces) for cells in manifest["completed"].values())

    resumed = Engine(jobs=2, checkpoint=checkpoint, resume=True).run(
        ExecutionPlan(traces=traces, schemes=SCHEMES)
    )
    assert resumed.results == first.results


def test_parallel_resume_from_serial_checkpoint(tmp_path, traces):
    checkpoint = CheckpointManager(tmp_path / "ckpt")
    serial = Engine(checkpoint=checkpoint).run(
        ExecutionPlan(traces=traces, schemes=SCHEMES)
    )
    parallel = Engine(jobs=3, checkpoint=checkpoint, resume=True).run(
        ExecutionPlan(traces=traces, schemes=SCHEMES)
    )
    assert parallel.results == serial.results


def test_executor_runs_columnar_traces(traces):
    columnar = [ColumnarTrace.from_trace(trace) for trace in traces]
    serial = Engine().run(ExecutionPlan(traces=traces, schemes=SCHEMES))
    parallel = Engine(jobs=2).run(ExecutionPlan(traces=columnar, schemes=SCHEMES))
    assert parallel.results == serial.results


def test_executor_reports_attempt_counts(traces):
    executor = ProcessPoolBackend(jobs=2, retry=no_sleep_policy(max_attempts=1))
    cells = ExecutionPlan(traces=traces[:1], schemes=["dir0b", "dragon"]).cells()
    outcomes = executor.run(Simulator(), cells)
    assert set(outcomes) == {0, 1}
    assert all(payload["status"] == "ok" for payload in outcomes.values())
    assert all(payload["attempts"] == 1 for payload in outcomes.values())


# ----------------------------------------------------------------------
# Trace fingerprints
# ----------------------------------------------------------------------

def test_fingerprint_is_representation_independent(traces):
    trace = traces[0]
    assert trace_fingerprint(trace) == trace_fingerprint(
        ColumnarTrace.from_trace(trace)
    )


def test_fingerprint_ignores_trace_name(traces):
    trace = traces[0]
    renamed = ColumnarTrace.from_trace(trace)
    renamed.name = "something-else"
    assert trace_fingerprint(trace) == trace_fingerprint(renamed)


def test_fingerprint_changes_with_content(traces):
    trace = traces[0]
    truncated = ColumnarTrace.from_trace(trace)[: len(trace) - 1]
    assert trace_fingerprint(trace) != trace_fingerprint(truncated)


def test_cache_key_varies_with_scheme_options_and_config(traces):
    fp = trace_fingerprint(traces[0])
    base = cache_key("dir0b", Simulator(), fp)
    assert cache_key("dragon", Simulator(), fp) != base
    assert cache_key("dir0b", Simulator(sharer_key="cpu"), fp) != base
    assert cache_key(("dirinb", {"num_pointers": 2}), Simulator(), fp) != base
    assert cache_key("dir0b", Simulator(), fp) == base


def test_cache_key_is_none_for_factories(traces):
    factory = lambda num_caches: make_protocol("dir0b", num_caches)  # noqa: E731
    assert cache_key(factory, Simulator(), trace_fingerprint(traces[0])) is None


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------

def test_result_cache_hits_skip_simulation(tmp_path, traces):
    cache = ResultCache(tmp_path / "cache")
    first = Engine(result_cache=cache).run(
        ExecutionPlan(traces=traces, schemes=SCHEMES)
    )
    assert cache.hits == 0
    assert cache.misses == len(SCHEMES) * len(traces)

    cache2 = ResultCache(tmp_path / "cache")
    second = Engine(result_cache=cache2).run(
        ExecutionPlan(traces=traces, schemes=SCHEMES)
    )
    assert cache2.hits == len(SCHEMES) * len(traces)
    assert cache2.misses == 0
    assert second.results == first.results


def test_result_cache_crosses_representations_and_jobs(tmp_path, traces):
    cache = ResultCache(tmp_path / "cache")
    serial = Engine(result_cache=cache).run(
        ExecutionPlan(traces=traces, schemes=SCHEMES)
    )
    columnar = [ColumnarTrace.from_trace(trace) for trace in traces]
    cache2 = ResultCache(tmp_path / "cache")
    parallel = Engine(jobs=2, result_cache=cache2).run(
        ExecutionPlan(traces=columnar, schemes=SCHEMES)
    )
    assert cache2.hits == len(SCHEMES) * len(traces)
    assert parallel.results == serial.results


def test_result_cache_ignores_corrupt_entries(tmp_path, traces):
    cache = ResultCache(tmp_path / "cache")
    Engine(result_cache=cache).run(ExecutionPlan(traces=traces, schemes=["dir0b"]))
    for entry in (tmp_path / "cache").glob("*.json"):
        entry.write_text("{ not json")
    cache2 = ResultCache(tmp_path / "cache")
    outcome = Engine(result_cache=cache2).run(
        ExecutionPlan(traces=traces, schemes=["dir0b"])
    )
    assert cache2.hits == 0
    assert not outcome.all_failures()


def test_result_cache_reports_under_current_labels(tmp_path, traces):
    """A hit from a differently-named identical trace keeps this sweep's names."""
    cache = ResultCache(tmp_path / "cache")
    Engine(result_cache=cache).run(ExecutionPlan(traces=traces[:1], schemes=["dir0b"]))
    renamed = ColumnarTrace.from_trace(traces[0])
    renamed.name = "alias"
    cache2 = ResultCache(tmp_path / "cache")
    outcome = Engine(result_cache=cache2).run(
        ExecutionPlan(traces=[renamed], schemes=["dir0b"])
    )
    assert cache2.hits == 1
    result = outcome.results["dir0b"]["alias"]
    assert result.trace_name == "alias"
    assert result.scheme == "dir0b"
