"""Error-isolated sweeps: retry, backoff, and per-cell containment."""

import pytest

from repro.core.experiment import CellFailure
from repro.core.simulator import Simulator
from repro.engine import Engine, ExecutionPlan, RetryPolicy, spec_key
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    TraceFormatError,
    TransientError,
)
from repro.protocols.registry import make_protocol
from repro.runner.faults import FaultInjector, FlakyTrace, SaboteurProtocol
from repro.trace.io import LazyTraceFile, write_trace_file
from repro.workloads.registry import make_trace


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
# Retry policy
# ----------------------------------------------------------------------

def test_backoff_is_exponential_and_capped():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5)
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(3) == pytest.approx(0.4)
    assert policy.delay(4) == pytest.approx(0.5)  # capped
    assert policy.delay(10) == pytest.approx(0.5)


def test_retry_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(backoff_base=-1)


def test_retryable_classification():
    policy = RetryPolicy()
    assert policy.is_retryable(TransientError("hiccup"))
    assert policy.is_retryable(OSError("stale NFS handle"))
    assert not policy.is_retryable(TraceFormatError("garbage"))
    assert not policy.is_retryable(ValueError("nope"))


def test_spec_key_forms():
    assert spec_key("dir1nb") == "dir1nb"
    assert spec_key(("dirinb", {"num_pointers": 2})) == "dir2nb"

    def factory(num_caches):
        return make_protocol("dir0b", num_caches)

    assert spec_key(factory) == "factory"
    factory.scheme_key = "custom"
    assert spec_key(factory) == "custom"


# ----------------------------------------------------------------------
# Error isolation
# ----------------------------------------------------------------------

def test_healthy_sweep_matches_strict_experiment(traces):
    plan = ExecutionPlan(traces=traces, schemes=["dir1nb", "wti", "dir0b"])
    resilient = Engine().run(plan)
    strict = Engine(strict=True, retry=RetryPolicy(max_attempts=1)).run(plan)
    assert resilient.ok
    assert strict.results == resilient.results
    for scheme in plan.schemes:
        for trace in traces:
            plain = Simulator().run(trace, scheme)
            plain.scheme = scheme
            assert resilient.result(scheme, trace.name) == plain


def test_corrupt_trace_is_contained_per_cell(tmp_path, traces):
    """The acceptance scenario: >= 3 schemes, one corrupted trace.

    Every healthy cell completes; every corrupt cell surfaces as a
    CellFailure naming the fault — the sweep never aborts.
    """
    bad_path = tmp_path / "bad.trace"
    write_trace_file(traces[1].records, bad_path)
    FaultInjector(seed=9).corrupt_text_trace(bad_path, mode="bad-type")
    corrupt = LazyTraceFile(bad_path, name="bad")

    schemes = ["dir1nb", "wti", "dir0b"]
    outcome = Engine().run(ExecutionPlan(traces=[traces[0], corrupt], schemes=schemes))

    assert not outcome.ok
    for scheme in schemes:
        assert outcome.result(scheme, "pops").total_refs == len(traces[0])
        failure = outcome.failures[scheme]["bad"]
        assert failure.category == "TraceFormatError"
        assert str(bad_path) in failure.message
    assert len(outcome.all_failures()) == len(schemes)


def test_failed_cell_lookup_mentions_the_failure(traces):
    outcome = Engine(retry=no_sleep_policy(max_attempts=2)).run(
        ExecutionPlan(
            traces=[FlakyTrace(traces[0], fail_after=5, fail_times=99)],
            schemes=["dir0b"],
        )
    )
    with pytest.raises(ConfigurationError, match="TransientError"):
        outcome.result("dir0b", "pops")


def test_strict_mode_reraises(traces):
    plan = ExecutionPlan(
        traces=[FlakyTrace(traces[0], fail_after=5, fail_times=99)],
        schemes=["dir0b"],
    )
    with pytest.raises(TransientError):
        Engine(retry=no_sleep_policy(max_attempts=2), strict=True).run(plan)


def test_illegal_protocol_state_contained_as_invariant_failure(traces):
    def saboteur(num_caches):
        return SaboteurProtocol(
            make_protocol("dir1nb", num_caches), trigger_after=40,
            mode="illegal-state",
        )
    saboteur.scheme_key = "sabotaged"

    outcome = Engine().run(
        ExecutionPlan(
            traces=[traces[0]],
            schemes=[saboteur, "dir0b"],
            simulator=Simulator(check_invariants=True),
        )
    )
    failure = outcome.failures["sabotaged"]["pops"]
    assert failure.category == "InvariantViolation"
    assert outcome.result("dir0b", "pops").total_refs == len(traces[0])


# ----------------------------------------------------------------------
# Retry with backoff
# ----------------------------------------------------------------------

def test_flaky_trace_retried_to_success(traces):
    delays = []
    retry = no_sleep_policy(max_attempts=3, backoff_base=0.05, sleep=delays.append)
    outcome = Engine(retry=retry).run(
        ExecutionPlan(
            traces=[FlakyTrace(traces[0], fail_after=100, fail_times=2)],
            schemes=["dir0b"],
        )
    )
    assert outcome.ok
    assert outcome.result("dir0b", "pops").total_refs == len(traces[0])
    # Two failures -> two exponentially growing backoff sleeps.
    assert delays == [pytest.approx(0.05), pytest.approx(0.1)]


def test_retries_exhausted_reports_attempt_count(traces):
    outcome = Engine(retry=no_sleep_policy(max_attempts=3)).run(
        ExecutionPlan(
            traces=[FlakyTrace(traces[0], fail_after=10, fail_times=99)],
            schemes=["dir0b"],
        )
    )
    failure = outcome.failures["dir0b"]["pops"]
    assert failure.attempts == 3
    assert failure.category == "TransientError"


def test_permanent_errors_are_not_retried(tmp_path, traces):
    bad_path = tmp_path / "bad.trace"
    write_trace_file(traces[0].records, bad_path)
    FaultInjector(seed=1).corrupt_text_trace(bad_path, mode="garbage")

    attempts_seen = []
    retry = no_sleep_policy(max_attempts=5, sleep=attempts_seen.append)
    outcome = Engine(retry=retry).run(
        ExecutionPlan(traces=[LazyTraceFile(bad_path, name="bad")], schemes=["dir0b"])
    )
    assert attempts_seen == []  # no backoff: the fault is permanent
    assert outcome.failures["dir0b"]["bad"].attempts == 1


def test_retry_after_transient_uses_fresh_protocol_state(traces):
    """A retried cell must not inherit a tainted protocol instance."""
    budget = {"left": 1}  # the fault fires once across all attempts

    def flaky_protocol(num_caches):
        saboteur = SaboteurProtocol(
            make_protocol("dir1nb", num_caches), trigger_after=200,
            mode="transient", failures_left=budget["left"],
        )
        budget["left"] = 0
        return saboteur

    flaky_protocol.scheme_key = "dir1nb"

    # The transient failure happens mid-trace; the successful attempt
    # must produce exactly what an unfaulted run produces.
    factories = [flaky_protocol]
    outcome = Engine(retry=no_sleep_policy(max_attempts=2)).run(
        ExecutionPlan(traces=[traces[0]], schemes=factories)
    )
    plain = Engine().run(ExecutionPlan(traces=[traces[0]], schemes=["dir1nb"]))
    assert outcome.result("dir1nb", "pops") == plain.result("dir1nb", "pops")


# ----------------------------------------------------------------------
# Result container contracts
# ----------------------------------------------------------------------

def test_cell_failure_str_reads_well():
    failure = CellFailure(
        scheme="dir1nb", trace_name="pops", category="TraceFormatError",
        message="bad line", attempts=3,
    )
    text = str(failure)
    assert "dir1nb" in text and "pops" in text
    assert "after 3 attempts" in text


def test_experiment_validates_inputs(traces):
    with pytest.raises(ConfigurationError):
        Engine().run(ExecutionPlan(traces=[], schemes=["dir0b"]))
    with pytest.raises(ConfigurationError):
        Engine().run(ExecutionPlan(traces=traces, schemes=[]))
    with pytest.raises(ConfigurationError):
        Engine(resume=True)
