"""Job-spec parsing, validation, and identity (repro.service.spec)."""

import pytest

from repro.errors import JobSpecError
from repro.service.spec import JobSpec, TraceSpec, parse_job_spec
from repro.workloads.registry import known_workloads

pytestmark = pytest.mark.service


def minimal(**overrides):
    payload = {
        "schemes": ["dir0b"],
        "traces": [{"workload": "pops", "length": 500}],
    }
    payload.update(overrides)
    return payload


def test_parse_minimal_spec():
    spec = parse_job_spec(minimal())
    assert spec.scheme_keys() == ["dir0b"]
    assert spec.scheme_specs() == ["dir0b"]
    assert spec.traces == (TraceSpec(workload="pops", length=500),)
    assert spec.sharer_key == "pid"
    assert spec.cell_count() == 1


def test_parse_scheme_with_options_gets_derived_key():
    spec = parse_job_spec(
        minimal(schemes=[{"name": "dirinb", "options": {"num_pointers": 2}}])
    )
    assert spec.scheme_keys() == ["dir2nb"]
    assert spec.scheme_specs() == [("dirinb", {"num_pointers": 2})]


def test_trace_entry_as_bare_string():
    spec = parse_job_spec(minimal(traces=["thor"]))
    assert spec.traces[0].workload == "thor"


def test_micro_workloads_are_known():
    assert any(name.startswith("micro-") for name in known_workloads())
    spec = parse_job_spec(minimal(traces=[{"workload": "micro-migratory"}]))
    trace = spec.traces[0].build()
    assert len(trace) > 0


def test_path_trace_entry():
    spec = parse_job_spec(minimal(traces=[{"path": "some/file.trace"}]))
    assert spec.traces[0].path == "some/file.trace"


@pytest.mark.parametrize(
    "bad",
    [
        {"schemes": ["nonsense"], "traces": ["pops"]},
        {"schemes": ["dir0b"], "traces": ["not-a-workload"]},
        {"schemes": [], "traces": ["pops"]},
        {"schemes": ["dir0b"], "traces": []},
        {"schemes": ["dir0b"]},
        {"traces": ["pops"]},
        {"schemes": ["dir0b"], "traces": ["pops"], "sharer_key": "node"},
        {"schemes": ["dir0b"], "traces": ["pops"], "priority": "high"},
        {"schemes": ["dir0b"], "traces": ["pops"], "unexpected": 1},
        {"schemes": ["dir0b"], "traces": [{"workload": "pops", "length": 0}]},
        {"schemes": ["dir0b"], "traces": [{"workload": "pops", "path": "x"}]},
        {"schemes": ["dir0b"], "traces": [{}]},
        {"schemes": [{"name": "dir0b", "bogus": 1}], "traces": ["pops"]},
        "not an object",
        42,
    ],
)
def test_invalid_specs_rejected(bad):
    with pytest.raises(JobSpecError):
        parse_job_spec(bad)


def test_spec_hash_is_stable_and_content_sensitive():
    a = parse_job_spec(minimal())
    b = parse_job_spec(minimal())
    assert a.spec_hash() == b.spec_hash()
    c = parse_job_spec(minimal(schemes=["dragon"]))
    assert a.spec_hash() != c.spec_hash()
    d = parse_job_spec(minimal(tags={"study": "x"}))
    assert a.spec_hash() != d.spec_hash()


def test_canonical_roundtrips_through_parse():
    spec = parse_job_spec(
        minimal(
            schemes=["dir0b", {"name": "dirinb", "options": {"num_pointers": 3}}],
            priority=5,
            dedup=True,
            tags={"k": "v"},
        )
    )
    again = parse_job_spec(spec.canonical())
    assert again == spec
    assert again.spec_hash() == spec.spec_hash()


def test_workload_trace_build_is_deterministic():
    spec = parse_job_spec(minimal(traces=[{"workload": "pops", "length": 400, "seed": 2}]))
    t1 = spec.traces[0].build()
    t2 = spec.traces[0].build()
    assert [r.address for r in t1.records] == [r.address for r in t2.records]
