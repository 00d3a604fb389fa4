"""Smoke test: every workload of the end-to-end benchmark at tiny sizes.

    PYTHONPATH=src pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from metrics import E2E, GATED, PER_LAYER
from spans import Tracer
from workloads import CtrcStream, PaperArtifacts, RosterSweep, ServiceJobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

TINY = {
    PaperArtifacts: {"length": 1_500, "warmup_length": 500},
    RosterSweep: {"length": 600, "warmup_length": 200},
    CtrcStream: {"length": 3_000, "chunk_records": 1_024, "warmup_length": 500},
    ServiceJobs: {"length": 300, "traced_jobs": 4, "warmup_length": 100},
}


@pytest.mark.parametrize("cls", list(TINY), ids=lambda cls: cls.name)
def test_workload_runs_checks_and_reports(cls, tmp_path):
    workload = cls(0, tmp_path, **TINY[cls])
    try:
        workload.setup()
        samples = [workload.iteration(index) for index in range(4)]
        rss = workload.peak_rss_mb()
        tracer = Tracer(workload.name)
        layers = workload.traced(tracer, samples)
        workload.verify()
    finally:
        workload.close()
    assert workload.problems == []
    assert workload.digest() is not None
    assert workload.attempted > 0 and workload.failed == 0
    assert rss > 0

    e2e = workload.e2e(samples)
    # run.py adds setup_s, peak_rss_mb and failed_share.
    assert set(GATED) - {"setup_s", "peak_rss_mb"} <= set(e2e) <= set(E2E)
    assert all(values and all(v > 0 for v in values) for values in e2e.values())
    assert set(layers) <= set(PER_LAYER)
    assert {"harness.trace_overhead_share", "harness.accounting_gap_share"} <= set(layers)
    assert tracer.spans and all(span.end >= span.start for span in tracer.spans)
    # Every wrapped entry point is restored.
    assert not tracer._patches


def test_benchmark_json_matches_the_metric_tables():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]}
    assert e2e == {name: E2E[name][:3] for name in GATED}
    # set-up time has the largest bound; every other bound is at most 10%.
    assert max(metric.bound for metric in E2E.values()) == E2E["setup_s"].bound
    assert all(m.bound <= 0.10 for name, m in E2E.items() if name != "setup_s")
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    assert per_layer == PER_LAYER
    assert [w["name"] for w in manifest["workloads"]] == [
        "paper-artifacts", "roster-sweep", "ctrc-stream", "service-jobs"
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper-artifacts",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_verdicts():
    def side(center, spread=0.02):
        return {"center": center, "q1": center, "q3": center, "spread": spread, "n": 10}

    base = side(1.0)
    assert compare.verdict(base, side(1.2), "lower", 0.1)[1] == "regressed"
    assert compare.verdict(base, side(0.8), "lower", 0.1)[1] == "improved"
    assert compare.verdict(base, side(0.8), "higher", 0.1)[1] == "regressed"
    assert compare.verdict(base, side(1.05), "lower", 0.1)[1] == "unchanged"
    assert compare.verdict(base, side(1.0, spread=0.3), "lower", 0.1)[1] == "unresolved"
    # failed_share: 0 at the baseline, bound 0.
    zero = side(0.0, spread=0.0)
    assert compare.verdict(zero, zero, "lower", 0.0)[1] == "unchanged"
    assert compare.verdict(zero, side(0.1, 0.0), "lower", 0.0)[1] == "regressed"
