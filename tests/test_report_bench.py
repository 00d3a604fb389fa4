"""``repro bench`` report pieces: the generation section and history."""

import json

from repro.report import bench


def test_generation_section_covers_the_paper_traces():
    section = bench.measure_generation(length=500, repeats=1, warmup=0)
    assert section["length"] == 500
    assert sorted(section["workloads"]) == ["pero", "pops", "thor"]
    for entry in section["workloads"].values():
        assert entry["refs_per_sec"] > 0 and entry["stream_refs_per_sec"] > 0


def test_generation_metrics_are_headlines_and_history_records_cores(tmp_path):
    report = {
        "cpu_cores": 2,
        "trace": {"workload": "pops", "length": 500},
        "generation": {
            "length": 500,
            "workloads": {"pops": {"refs_per_sec": 10, "stream_refs_per_sec": 5}},
        },
    }
    metrics = bench.headline_metrics(report)
    assert metrics == {
        "generation.pops.refs_per_sec": 10,
        "generation.pops.stream_refs_per_sec": 5,
    }
    history = tmp_path / "history.jsonl"
    bench.append_history(report, history)
    record = json.loads(history.read_text())
    assert record["cpu_cores"] == 2 and record["metrics"] == metrics
    # A drop in generation throughput trips the regression gate.
    slower = {**report, "generation": {"length": 500, "workloads": {
        "pops": {"refs_per_sec": 5, "stream_refs_per_sec": 5}}}}
    assert bench.find_regressions(slower, bench.load_history(history)) == [
        "generation.pops.refs_per_sec: 5 refs/s is 50.0% below the rolling "
        "baseline 10"
    ]
