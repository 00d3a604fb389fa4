"""ConformanceChecker: the unified oracle + invariant + differential gate."""

import pickle

import pytest

from repro.errors import ConfigurationError, ConformanceError
from repro.memory.line import LineState
from repro.protocols.directory.dirnnb import DirNNBProtocol
from repro.protocols.registry import _REGISTRY, available_protocols
from repro.verify import (
    ConformanceChecker,
    ConformanceSpec,
    TraceFuzzer,
)
from repro.verify.checker import summarize_events

from conftest import tiny_trace


class LeakyProtocol(DirNNBProtocol):
    """DirNNB that 'forgets' to invalidate one sharer on every write.

    The surviving clean copy violates single-writer (and directory
    agreement) the moment the write completes — a deliberate coherence
    bug for exercising the detection and shrinking pipeline.
    """

    def on_write(self, cache, block, first_ref):
        result = super().on_write(cache, block, first_ref)
        other = (cache + 1) % self.num_caches
        if other != cache:
            self._caches[other].put(block, LineState.CLEAN)
        return result


@pytest.fixture
def leaky_registry(monkeypatch):
    monkeypatch.setitem(_REGISTRY, "leaky", LeakyProtocol)
    return "leaky"


def fuzz_traces(count=4, seed=0):
    return list(TraceFuzzer(seed=seed).traces(count))


def test_all_registered_protocols_pass_a_fuzz_sweep():
    report = ConformanceChecker().check(fuzz_traces(6))
    assert report.clean, [str(f) for f in report.findings]
    assert report.cells == 6 * len(available_protocols())
    # Every clean cell contributed a differential summary.
    assert len(report.summaries) == 6
    for per_scheme in report.summaries.values():
        assert len(per_scheme) == len(available_protocols())


def test_reports_digest_identically_across_runs_and_backends():
    traces = fuzz_traces(4, seed=9)
    serial = ConformanceChecker(schemes=["dir1nb", "dragon"]).check(traces)
    again = ConformanceChecker(schemes=["dir1nb", "dragon"]).check(
        fuzz_traces(4, seed=9)
    )
    pooled = ConformanceChecker(schemes=["dir1nb", "dragon"], jobs=2).check(traces)
    assert serial.digest() == again.digest() == pooled.digest()
    # Digest is content-sensitive, not just shape-sensitive.
    other = ConformanceChecker(schemes=["dir1nb", "dragon"]).check(
        fuzz_traces(4, seed=10)
    )
    assert other.digest() != serial.digest()


def test_buggy_protocol_is_flagged_with_invariant_findings(leaky_registry):
    checker = ConformanceChecker(schemes=[leaky_registry, "dirnnb"])
    report = checker.check([tiny_trace()])
    assert not report.clean
    kinds = {f.kind for f in report.findings if f.scheme == leaky_registry}
    assert "invariant" in kinds
    # The correct sibling stays clean.
    assert not [f for f in report.findings if f.scheme == "dirnnb"]
    with pytest.raises(ConformanceError, match="conformance failure"):
        report.raise_on_failure()


def test_saboteur_specs_surface_as_findings():
    checker = ConformanceChecker()
    specs = [
        ConformanceSpec("dir1nb", saboteur_trigger=3, saboteur_mode="illegal-state"),
        ConformanceSpec("dir1nb", saboteur_trigger=3, saboteur_mode="transient"),
    ]
    report = checker.check([tiny_trace()], specs=specs, differential=False)
    by_scheme = {f.scheme: f for f in report.findings}
    assert by_scheme["dir1nb+illegal-state@3"].kind == "invariant"
    assert by_scheme["dir1nb+transient@3"].kind == "fault"


def test_miscounting_fast_path_is_a_fast_path_finding(monkeypatch):
    """Clean oracle cells re-run on the fast path, the tables included.

    The oracle-wrapped cell takes the record loop, so only the re-run
    reaches the (here deliberately miscounting) transition tables, for
    every stock protocol on infinite and finite caches alike.
    """
    import repro.core.simulator as simulator_module

    real_kernel_run = simulator_module.kernel_run

    def miscounting_kernel_run(simulator, trace, protocol, result, context):
        ran = real_kernel_run(simulator, trace, protocol, result, context)
        if ran is not None:
            ran.record_instructions(1)
        return ran

    monkeypatch.setattr(simulator_module, "kernel_run", miscounting_kernel_run)
    checker = ConformanceChecker(schemes=["dir0b", "dirnnb"])
    report = checker.check(fuzz_traces(2), specs=checker.specs_for((None, "4x2")))
    assert {(f.scheme, f.kind) for f in report.findings} == {
        ("dir0b", "fast-path"),
        ("dir0b@4x2", "fast-path"),
        ("dirnnb", "fast-path"),
        ("dirnnb@4x2", "fast-path"),
    }
    assert all("event_counts" in f.message for f in report.findings)


def test_differentials_catch_event_count_disagreement():
    summaries = {
        "t": {
            "a": {"total-refs": 10, "instructions": 2, "reads": 5,
                  "writes": 3, "first-references": 1},
            "b": {"total-refs": 10, "instructions": 2, "reads": 4,
                  "writes": 4, "first-references": 1},
        }
    }
    findings = ConformanceChecker._differentials(summaries)
    measures = {f.message.split(" ")[0] for f in findings}
    assert measures == {"reads", "writes"}
    assert all(f.scheme == "*" and f.kind == "differential" for f in findings)


def test_differentials_need_two_schemes_to_compare():
    summaries = {"t": {"a": {"total-refs": 1, "instructions": 0, "reads": 1,
                             "writes": 0, "first-references": 1}}}
    assert ConformanceChecker._differentials(summaries) == []


def test_summarize_events_rolls_up_result_json():
    summary = summarize_events(
        {
            "total_refs": 9,
            "event_counts": {"instr": 2, "rd-hit": 3, "wm-first-ref": 1,
                             "wh-blk-cln": 2, "rm-first-ref": 1},
        }
    )
    assert summary == {
        "total-refs": 9,
        "instructions": 2,
        "reads": 4,
        "writes": 3,
        "first-references": 2,
    }


def test_spec_is_picklable_and_builds_instrumented_stack():
    spec = ConformanceSpec("dir0b", saboteur_trigger=5, saboteur_mode="transient")
    clone = pickle.loads(pickle.dumps(spec))
    oracle = clone(4)
    assert oracle.name == "dir0b"
    assert oracle.protocol.mode == "transient"
    assert clone.scheme_key == "dir0b+transient@5"
    assert ConformanceSpec("dir0b").scheme_key == "dir0b"


def test_coarse_vector_machine_size_rounds_up():
    # 3 sharers would be an illegal coarse-vector machine; the spec
    # rounds up to 4 and the cell simulates cleanly.
    report = ConformanceChecker(schemes=["coarse-vector"]).check([tiny_trace()])
    oracle = ConformanceSpec("coarse-vector")(3)
    assert oracle.num_caches == 4
    assert report.clean, [str(f) for f in report.findings]


def test_statespace_leg_folds_into_the_same_report_shape():
    report = ConformanceChecker(schemes=["dir1nb", "coarse-vector"]).check_statespace()
    assert report.clean
    assert report.cells == 2


def test_empty_inputs_yield_an_empty_clean_report():
    report = ConformanceChecker(schemes=["dir1nb"]).check([])
    assert report.clean and report.cells == 0
    assert report.digest() == ConformanceChecker(schemes=["dir1nb"]).check([]).digest()


def test_check_interval_is_validated():
    with pytest.raises(ConfigurationError):
        ConformanceChecker(check_interval=0)


def test_unknown_schemes_are_rejected_as_configuration_errors():
    # A typo'd scheme is a configuration problem (CLI exit 5), not a
    # conformance finding (exit 7).
    with pytest.raises(ConfigurationError, match="nosuch"):
        ConformanceChecker(schemes=["dir1nb", "nosuch"])
