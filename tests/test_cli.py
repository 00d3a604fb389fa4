"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list(capsys):
    code, out, _err = run_cli(capsys, "list")
    assert code == 0
    assert "dir0b" in out and "dragon" in out
    assert "pops" in out and "pero" in out


def test_generate_and_stats_text(tmp_path, capsys):
    path = tmp_path / "t.trace"
    code, out, _ = run_cli(capsys, "generate", "pops", str(path), "--length", "2000")
    assert code == 0 and "2,000 records" in out
    code, out, _ = run_cli(capsys, "stats", "--trace-file", str(path))
    assert code == 0
    assert "references" in out and "2000" in out


def test_generate_binary_roundtrip(tmp_path, capsys):
    path = tmp_path / "t.bin"
    code, _, _ = run_cli(
        capsys, "generate", "thor", str(path), "--length", "1500", "--format", "binary"
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "simulate", "--trace-file", str(path),
                           "--schemes", "dir0b")
    assert code == 0
    assert "dir0b" in out and "1,500 refs" in out


def test_generate_seed_changes_trace(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_cli(capsys, "generate", "pero", str(a), "--length", "1000", "--seed", "1")
    run_cli(capsys, "generate", "pero", str(b), "--length", "1000", "--seed", "2")
    run_cli(capsys, "generate", "pero", str(c), "--length", "1000", "--seed", "1")
    assert a.read_text() == c.read_text()
    assert a.read_text() != b.read_text()


def test_simulate_from_workload(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--workload", "pero", "--length", "3000",
        "--schemes", "dir1nb", "dragon",
    )
    assert code == 0
    assert "dir1nb" in out and "dragon" in out
    assert "cyc/ref" in out


def test_simulate_unknown_scheme_fails_cleanly(capsys):
    code, _out, err = run_cli(
        capsys, "simulate", "--workload", "pero", "--length", "1000",
        "--schemes", "mesi",
    )
    assert code == 5  # ConfigurationError category
    assert "error [configuration]:" in err and "mesi" in err


def test_artifact_table(capsys):
    code, out, _ = run_cli(capsys, "artifact", "table1", "--length", "1000")
    assert code == 0
    assert "Table 1" in out


def test_artifact_section(capsys):
    code, out, _ = run_cli(capsys, "artifact", "section6-storage", "--length", "1000")
    assert code == 0
    assert "bits per memory block" in out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_unknown_artifact():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["artifact", "table99"])


def test_report_command(tmp_path, capsys):
    path = tmp_path / "REPORT.md"
    code, out, _ = run_cli(capsys, "report", str(path), "--length", "3000")
    assert code == 0
    assert "wrote evaluation report" in out
    assert path.read_text().startswith("# Directory Schemes")


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--schemes", "dir0b", "dragon")
    assert code == 0
    assert "dir0b" in out and "dragon" in out
    assert "ok" in out


def test_verify_adjusts_coarse_vector_cache_count(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--schemes", "coarse-vector", "--caches", "3"
    )
    assert code == 0
    assert "caches=4" in out


def test_verify_fuzz_passes_and_prints_a_stable_digest(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--fuzz", "6", "--seed", "3",
        "--schemes", "dir1nb", "dragon", "wti",
    )
    assert code == 0
    assert "conformance: ok" in out
    digest = next(line for line in out.splitlines() if line.startswith("digest:"))
    code, out, _ = run_cli(
        capsys, "verify", "--fuzz", "6", "--seed", "3",
        "--schemes", "dir1nb", "dragon", "wti",
    )
    assert code == 0
    assert digest in out  # byte-identical re-run with the same seed


def test_verify_mutation_mode_reports_the_kill_rate(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--mutation", "--schemes", "dir0b", "berkeley"
    )
    assert code == 0
    assert "mutants killed (100%)" in out


def test_verify_corpus_replay(tmp_path, capsys):
    from repro.verify import Corpus
    from repro.verify.mutation import mutation_trace

    Corpus(tmp_path).save(mutation_trace(2), {"kind": "invariant"})
    code, out, _ = run_cli(
        capsys, "verify", "--corpus", str(tmp_path), "--schemes", "dir1nb", "wti"
    )
    assert code == 0
    assert "corpus: 1 reproducers, 2 cells, 0 findings" in out


def test_verify_fuzz_failure_exits_7_and_banks_a_reproducer(tmp_path, capsys, monkeypatch):
    """End to end on a genuinely buggy protocol: the fuzzer finds it,
    the gate exits 7, and the shrunk reproducer lands in the corpus."""
    from repro.protocols.registry import _REGISTRY
    from test_verify_checker import LeakyProtocol

    monkeypatch.setitem(_REGISTRY, "leaky", LeakyProtocol)
    corpus_dir = tmp_path / "corpus"
    code, out, err = run_cli(
        capsys, "verify", "--fuzz", "4", "--seed", "0",
        "--schemes", "leaky", "--update-corpus", str(corpus_dir),
    )
    assert code == 7
    assert "error [conformance]:" in err
    assert "shrunk" in err and "saved reproducer:" in err
    saved = list(corpus_dir.glob("*.trace"))
    assert saved
    # The minimized reproducer is tiny: one write is enough to trip the
    # leaked-copy invariant violation.
    from repro.trace.io import load_trace

    assert min(len(load_trace(p).records) for p in saved) <= 3


def test_transitions_command(capsys):
    code, out, _ = run_cli(capsys, "transitions", "dir1nb")
    assert code == 0
    assert "Derived transition table: dir1nb" in out
    assert "rm-blk-drty" in out


def test_transitions_coarse_vector_adjusts_caches(capsys):
    code, out, _ = run_cli(capsys, "transitions", "coarse-vector", "--caches", "3")
    assert code == 0
    assert "4 caches" in out


def test_micro_workload_via_cli(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--workload", "micro-migratory",
        "--length", "4000", "--schemes", "dir1nb", "dir0b",
    )
    assert code == 0
    assert "micro-migratory" in out


def test_micro_workloads_listed(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "micro-false-sharing" in out


def test_conclusions_artifact(capsys):
    code, out, _ = run_cli(capsys, "artifact", "conclusions", "--length", "4000")
    assert code == 0
    assert "conclusions, re-derived" in out


def test_module_entry_point_runs():
    import subprocess, sys

    completed = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0
    assert "dir0b" in completed.stdout


# ----------------------------------------------------------------------
# Error-category exit codes
# ----------------------------------------------------------------------

def test_trace_format_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("0 0 r 0x100\nnot a record at all\n")
    code, _out, err = run_cli(capsys, "stats", "--trace-file", str(bad))
    assert code == 3
    assert "error [trace-format]:" in err
    assert f"{bad}:2" in err  # path and 1-based line number


@pytest.mark.parametrize(
    "argv",
    [("trace", "pack", "{path}", "{out}"), ("simulate", "--trace-file", "{path}")],
)
def test_address_wider_than_64_bits_exits_3(tmp_path, capsys, argv):
    """A value the 64-bit columns cannot hold is a located format error."""
    wide = tmp_path / "wide.trace"
    wide.write_text("0 0 r 0x100\n0 0 r 0x400000000000000000\n")
    out = tmp_path / "wide.ctrc"
    code, _out, err = run_cli(
        capsys, *(arg.format(path=wide, out=out) for arg in argv)
    )
    assert code == 3
    assert "error [trace-format]:" in err and f"{wide}:2" in err


def test_run_rejects_the_removed_columnar_flag():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--columnar"])


def test_configuration_error_exits_5(capsys):
    code, _out, err = run_cli(
        capsys, "run", "--workloads", "pops", "--length", "500",
        "--schemes", "dir0b", "--resume",
    )
    assert code == 5  # --resume without --checkpoint
    assert "error [configuration]:" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_zero_batch_exits_5_for_any_job_count(capsys, jobs):
    code, out, err = run_cli(
        capsys, "run", "--workloads", "pops", "--length", "500",
        "--schemes", "dir0b", "--jobs", jobs, "--batch", "0",
    )
    assert code == 5
    assert "error [configuration]: batch size must be >= 1" in err
    assert out == ""


# ----------------------------------------------------------------------
# repro run: the fault-tolerant sweep
# ----------------------------------------------------------------------

def test_run_sweep_all_healthy(capsys):
    code, out, _err = run_cli(
        capsys, "run", "--workloads", "pops", "--length", "2000",
        "--schemes", "dir1nb", "dir0b",
    )
    assert code == 0
    assert "dir1nb" in out and "dir0b" in out and "cells ok" in out


def test_run_sweep_contains_corrupt_trace(tmp_path, capsys):
    from repro.runner.faults import FaultInjector
    from repro.trace.io import write_trace_file
    from repro.workloads.registry import make_trace

    good = tmp_path / "good.trace"
    bad = tmp_path / "bad.trace"
    write_trace_file(make_trace("pops", length=1500).records, good)
    write_trace_file(make_trace("thor", length=1500).records, bad)
    FaultInjector(seed=7).corrupt_text_trace(bad, mode="bad-address")

    code, out, err = run_cli(
        capsys, "run", "--trace-files", str(good), str(bad),
        "--schemes", "dir1nb", "wti", "dir0b",
    )
    assert code == 1  # partial failure, sweep still completed
    # All three healthy cells produced numbers ...
    assert out.count("good") == 3
    # ... and every corrupt cell is a reported failure, not an abort.
    assert err.count("cell failed:") == 3
    assert "TraceFormatError" in err and "bad.trace" in err


def test_run_lenient_skips_corrupt_line(tmp_path, capsys):
    from repro.runner.faults import FaultInjector
    from repro.trace.io import write_trace_file
    from repro.workloads.registry import make_trace

    bad = tmp_path / "bad.trace"
    write_trace_file(make_trace("pops", length=1500).records, bad)
    FaultInjector(seed=7).corrupt_text_trace(bad, mode="garbage")

    code, out, _err = run_cli(
        capsys, "run", "--trace-files", str(bad), "--schemes", "dir0b",
        "--lenient",
    )
    assert code == 0
    assert "cells ok" in out


def test_run_checkpoint_and_resume_cli(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    args = [
        "run", "--workloads", "pops", "--length", "2000",
        "--schemes", "dir1nb", "dir0b", "--checkpoint", str(ckpt),
    ]
    code, first_out, _ = run_cli(capsys, *args)
    assert code == 0
    assert (ckpt / "manifest.json").is_file()
    # Resume of a finished sweep restores every cell from the manifest.
    code, resumed_out, err = run_cli(capsys, *args, "--resume")
    assert code == 0
    assert "running" not in err  # nothing re-simulated
    assert resumed_out == first_out


def test_list_json_is_machine_readable(capsys):
    import json as json_module

    code, out, _err = run_cli(capsys, "list", "--json")
    assert code == 0
    registry = json_module.loads(out)
    assert "dir0b" in registry["protocols"]
    assert "pops" in registry["workloads"]
    assert any(name.startswith("micro-") for name in registry["workloads"])
    assert registry["sharer_keys"] == ["pid", "cpu"]


def test_submit_against_dead_server_exits_service_code(capsys):
    code, _out, err = run_cli(
        capsys, "submit", "--server", "http://127.0.0.1:9",
        "--timeout", "0.5", "--workloads", "pops", "--length", "500",
    )
    assert code == 6
    assert "service" in err


def test_status_against_dead_server_exits_service_code(capsys):
    code, _out, err = run_cli(
        capsys, "status", "--server", "http://127.0.0.1:9", "--timeout", "0.5"
    )
    assert code == 6
    assert "service" in err


def test_serve_submit_status_cycle(tmp_path, capsys):
    """serve + submit --stream + status against a live in-process server."""
    import json as json_module

    from repro.service import Scheduler, ServiceServer

    server = ServiceServer(Scheduler(workers=1, sim_jobs=1), port=0)
    server.start()
    try:
        code, out, _err = run_cli(
            capsys, "submit", "--server", server.url,
            "--schemes", "dir0b", "--workloads", "pops",
            "--length", "800", "--seed", "1", "--stream",
        )
        assert code == 0
        events = [json_module.loads(line) for line in out.splitlines() if line]
        assert events[-1]["type"] == "job" and events[-1]["state"] == "done"
        job_id = events[0]["job"]

        code, out, _err = run_cli(capsys, "status", "--server", server.url, job_id)
        assert code == 0
        assert json_module.loads(out)["state"] == "done"

        code, out, _err = run_cli(capsys, "status", "--server", server.url)
        assert code == 0
        stats = json_module.loads(out)
        assert stats["jobs"]["done"] == 1
        assert stats["cells"]["simulated"] == 1
    finally:
        server.stop(mode="drain", timeout=30.0)


def test_submit_wait_prints_final_status(capsys):
    import json as json_module

    from repro.service import Scheduler, ServiceServer

    server = ServiceServer(Scheduler(workers=1, sim_jobs=1), port=0)
    server.start()
    try:
        code, out, _err = run_cli(
            capsys, "submit", "--server", server.url,
            "--schemes", "dir0b", "dragon", "--workloads", "pops",
            "--length", "800", "--wait",
        )
        assert code == 0
        final = json_module.loads(out)
        assert final["state"] == "done"
        assert final["cells"]["completed"] == 2
    finally:
        server.stop(mode="drain", timeout=30.0)


@pytest.mark.parametrize("workload", ["thor", "micro-spinlock", "modern-rcu"])
def test_trace_gen_writes_the_in_memory_trace(tmp_path, capsys, workload):
    """Every workload family ``trace gen`` offers packs the trace the
    in-memory generator builds (a round never divides 1,000 records)."""
    from repro.workloads.registry import make_any_trace
    from repro.runner.cache import trace_fingerprint
    from repro.store import ChunkedTrace

    out = tmp_path / "out.ctrc"
    code, stdout, _err = run_cli(
        capsys, "trace", "gen", workload, str(out), "--length", "2500",
        "--seed", "3", "--chunk-records", "1000",
    )
    assert code == 0 and "2,500 records" in stdout
    expected = trace_fingerprint(make_any_trace(workload, length=2500, seed=3))
    with ChunkedTrace(out) as stored:
        assert len(stored.chunks) == 3
        assert trace_fingerprint(stored) == expected
        assert stored.meta["fingerprint"] == expected
