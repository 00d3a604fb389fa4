"""Sweep results (schemes x traces) from an engine run."""

import pytest

from repro.cost.bus import PAPER_PIPELINED
from repro.engine import (
    NULL_OBSERVER,
    Engine,
    EngineObserver,
    ExecutionPlan,
    RetryPolicy,
)
from repro.errors import ConfigurationError

from conftest import tiny_trace


def two_traces():
    return [tiny_trace("alpha"), tiny_trace("beta")]


def sweep(traces, schemes, observer=NULL_OBSERVER):
    """A fail-fast sweep with no retries, as the paper artifacts run it."""
    engine = Engine(strict=True, retry=RetryPolicy(max_attempts=1), observer=observer)
    return engine.run(ExecutionPlan(traces=traces, schemes=schemes))


def test_runs_all_scheme_trace_pairs():
    outcome = sweep(two_traces(), ["dir0b", "dragon"])
    assert set(outcome.schemes) == {"dir0b", "dragon"}
    assert outcome.trace_names == ["alpha", "beta"]
    assert outcome.result("dir0b", "alpha").total_refs == len(tiny_trace())


def test_combined_pools_traces():
    outcome = sweep(two_traces(), ["dir0b"])
    combined = outcome.combined("dir0b")
    assert combined.total_refs == 2 * len(tiny_trace())


def test_bus_cycles_table():
    outcome = sweep(two_traces(), ["dir0b", "dragon"])
    table = outcome.bus_cycles_table(PAPER_PIPELINED)
    assert set(table) == {"dir0b", "dragon"}
    assert all(value >= 0 for value in table.values())


def test_per_trace_bus_cycles():
    outcome = sweep(two_traces(), ["dir0b"])
    per_trace = outcome.per_trace_bus_cycles(PAPER_PIPELINED)
    assert set(per_trace["dir0b"]) == {"alpha", "beta"}
    # Identical traces => identical costs.
    assert per_trace["dir0b"]["alpha"] == per_trace["dir0b"]["beta"]


def test_parameterized_schemes_get_distinct_keys():
    outcome = sweep(
        two_traces(),
        [("dirib", {"num_pointers": 1}), ("dirib", {"num_pointers": 2})],
    )
    assert set(outcome.schemes) == {"dir1b", "dir2b"}


def test_missing_result_raises():
    outcome = sweep(two_traces(), ["dir0b"])
    with pytest.raises(ConfigurationError):
        outcome.result("dragon", "alpha")
    with pytest.raises(ConfigurationError):
        outcome.combined("dragon")


def test_empty_configuration_rejected():
    with pytest.raises(ConfigurationError):
        sweep([], ["dir0b"])
    with pytest.raises(ConfigurationError):
        sweep(two_traces(), [])


def test_progress_callback_invoked():
    class StartedCells(EngineObserver):
        def __init__(self):
            self.calls = []

        def cell_started(self, task):
            self.calls.append((task.scheme_key, task.trace_name))

    observer = StartedCells()
    sweep(two_traces(), ["dir0b"], observer=observer)
    assert observer.calls == [("dir0b", "alpha"), ("dir0b", "beta")]
