"""``repro bench`` report pieces: the generation section and history."""

import json

from repro.report import bench


def test_generation_section_covers_the_paper_traces():
    section = bench.measure_generation(length=500, repeats=1, warmup=0)
    assert section["length"] == 500
    assert sorted(section["workloads"]) == ["pero", "pops", "thor"]
    for entry in section["workloads"].values():
        assert entry["refs_per_sec"] > 0 and entry["stream_refs_per_sec"] > 0
        assert entry["fingerprint_refs_per_sec"] > 0
    metrics = bench.headline_metrics({"generation": section})
    assert metrics["generation.pops.fingerprint_refs_per_sec"] > 0


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


def test_startup_section_counts_modules_of_fresh_processes():
    section = bench.measure_startup(runs=1)
    probes = section["probes"]
    assert sorted(probes) == ["cli_help", "import_repro", "python"]
    assert probes["python"]["modules"] == 0
    assert probes["import_repro"]["modules"] == 1
    assert probes["cli_help"]["modules"] > 1
    assert all(entry["wall_s"] > 0 for entry in probes.values())


def test_generic_section_covers_every_protocol():
    from repro.protocols.registry import available_protocols
    from repro.workloads.registry import make_trace

    section = bench.measure_generic(make_trace("pops", length=500), repeats=1, warmup=0)
    assert sorted(section) == available_protocols()
    tables = sorted(s for s, entry in section.items() if entry["path"] == "table")
    assert tables == available_protocols()
    assert all(entry["refs_per_sec"] > 0 for entry in section.values())


def test_gate_tolerates_new_metrics_and_flags_slower_startup(tmp_path):
    trace = {"workload": "pops", "length": 500}
    history = tmp_path / "history.jsonl"
    bench.append_history({"trace": trace, "generic": {"wti": {"refs_per_sec": 9}}}, history)
    startup = {"probes": {"cli_help": {"wall_s": 0.2, "modules": 40}}}
    report = {"trace": trace, "startup": startup, "generic": {"wti": {"refs_per_sec": 9}}}
    # No history for the startup metrics yet: nothing to regress from.
    assert bench.find_regressions(report, bench.load_history(history)) == []
    bench.append_history(report, history)
    slower = {**report, "startup": {"probes": {"cli_help": {"wall_s": 0.3, "modules": 40}}}}
    assert bench.find_regressions(slower, bench.load_history(history)) == [
        "startup.cli_help.wall_s: 0.3 is 50.0% above the rolling baseline 0.2"
    ]
