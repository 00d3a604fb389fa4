#!/usr/bin/env python
"""Bounded-memory acceptance check for the chunked trace store.

Generates a ``.ctrc`` trace many times larger than the process RSS
ceiling, then proves the bounded-memory claim three independent ways —
each phase running in its own subprocess with ``RLIMIT_DATA`` set, so
an unbounded allocation fails loudly instead of quietly paging:

1. **serial** — the chunk-streamed table path (``Simulator.run`` over
   ``iter_chunks``);
2. **pooled** — an ``Engine(jobs=N)`` sweep fanning the same cell across a
   process pool (chunk *handles* cross the pickle boundary);
3. **interrupt + resume** — a deterministic mid-cell kill between
   chunk boundaries, then a resume from the mid-chunk snapshot.

All three result digests must be bit-identical, and (at a scale the
ceiling can hold) also bit-identical to the in-memory columnar path.
Run directly or via ``make bigtrace``; CI runs it with the defaults.

Exit status: 0 on success, 1 with a FAILED report otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

DEFAULT_RECORDS = 27_000_000  # x 26 B/record = ~670 MiB raw (>10x ceiling)
DEFAULT_CEILING_MB = 64
DEFAULT_MIN_RATIO = 10.0
DEFAULT_SCHEME = "dir0b"
DEFAULT_WORKLOAD = "pops"
CHUNK_RECORDS = 262_144
# Not a divisor of CHUNK_RECORDS (2**18), so *every* snapshot position
# falls mid-chunk and the resume phase always exercises the
# (chunk index, intra-chunk offset) manifest path.
CHECKPOINT_EVERY = 100_000


def peak_rss_mb() -> float:
    """Peak RSS of this process and its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def apply_ceiling(ceiling_mb: int) -> None:
    """Cap anonymous memory (heap + private mmaps) for this process.

    ``RLIMIT_DATA`` — not ``RLIMIT_AS`` — so the read-only file-backed
    map of the trace itself does not count against the ceiling; the
    claim under test is about *heap* growth.
    """
    limit = ceiling_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_DATA, (limit, limit))


def result_digest(result) -> str:
    from repro.runner.checkpoint import result_to_json

    payload = json.dumps(result_to_json(result), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def emit(payload: dict) -> None:
    """Phase protocol: the last stdout line is the phase's JSON report."""
    payload["rss_mb"] = round(peak_rss_mb(), 1)
    print(json.dumps(payload))


# ----------------------------------------------------------------------
# Phases (each runs as a subprocess with the rlimit applied)
# ----------------------------------------------------------------------


def phase_gen(args) -> int:
    from repro.store import write_stream
    from repro.workloads.registry import stream_trace

    start = time.perf_counter()
    meta = write_stream(
        stream_trace(args.workload, length=args.records),
        args.path,
        codec=args.codec,
        chunk_records=CHUNK_RECORDS,
    )
    emit({
        "phase": "gen",
        "records": meta["records"],
        "chunks": len(meta["chunks"]),
        "fingerprint": meta["fingerprint"],
        "seconds": round(time.perf_counter() - start, 1),
    })
    return 0


def phase_serial(args) -> int:
    from repro.core.simulator import Simulator
    from repro.store import ChunkedTrace

    start = time.perf_counter()
    with ChunkedTrace(args.path) as trace:
        result = Simulator().run(trace, args.scheme)
    emit({
        "phase": "serial",
        "digest": result_digest(result),
        "seconds": round(time.perf_counter() - start, 1),
    })
    return 0


def phase_pooled(args) -> int:
    from repro.engine import Engine, ExecutionPlan
    from repro.store import ChunkedTrace

    start = time.perf_counter()
    with ChunkedTrace(args.path) as trace:
        outcome = Engine(jobs=args.jobs).run(
            ExecutionPlan(traces=[trace], schemes=[args.scheme])
        )
        if not outcome.ok:
            print(f"pooled sweep failed: {outcome.all_failures()}", file=sys.stderr)
            return 1
        result = outcome.result(args.scheme, trace.name)
    emit({
        "phase": "pooled",
        "digest": result_digest(result),
        "seconds": round(time.perf_counter() - start, 1),
    })
    return 0


def _kill_trigger(records: int) -> int:
    """Saboteur trigger: counts *data* references (~48% of records in
    the synthetic workloads), so records // 5 kills the run roughly
    two-fifths of the way through — far from both ends, never on a
    chunk boundary (the snapshot granularity is CHECKPOINT_EVERY,
    which no chunk boundary divides)."""
    return max(1000, records // 5) + 37


def _saboteur_factory(scheme: str, trigger_after: int):
    from repro.protocols.registry import make_protocol
    from repro.runner.faults import SaboteurProtocol

    def factory(num_caches: int):
        return SaboteurProtocol(
            make_protocol(scheme, num_caches),
            trigger_after=trigger_after,
            mode="kill",
        )

    factory.scheme_key = scheme
    return factory


def phase_interrupt(args) -> int:
    """Kill the cell deterministically mid-chunk; leave the snapshot."""
    from repro.engine import Engine, ExecutionPlan
    from repro.runner.checkpoint import CheckpointManager
    from repro.runner.faults import KillPoint
    from repro.store import ChunkedTrace

    factory = _saboteur_factory(args.scheme, _kill_trigger(args.records))
    with ChunkedTrace(args.path) as trace:
        KillPoint.arm()
        try:
            Engine(
                checkpoint=CheckpointManager(args.checkpoint),
                checkpoint_every=CHECKPOINT_EVERY,
            ).run(ExecutionPlan(traces=[trace], schemes=[factory]))
        except KeyboardInterrupt:
            pass
        else:
            print("saboteur never fired — no mid-cell kill", file=sys.stderr)
            return 1
        finally:
            KillPoint.disarm()

        state = CheckpointManager(args.checkpoint).load_cell_state()
        if state is None:
            print("no mid-cell snapshot survived the kill", file=sys.stderr)
            return 1
        chunk_position = state.get("chunk_position")
        if not chunk_position or chunk_position[1] == 0:
            print(
                f"snapshot {chunk_position} is chunk-aligned; the resume "
                "phase would not exercise the mid-chunk path",
                file=sys.stderr,
            )
            return 1
        if not 0 < state["records_done"] < len(trace):
            print(f"implausible snapshot position {state['records_done']}",
                  file=sys.stderr)
            return 1
    emit({
        "phase": "interrupt",
        "records_done": state["records_done"],
        "chunk_position": list(chunk_position),
    })
    return 0


def phase_resume(args) -> int:
    from repro.engine import Engine, ExecutionPlan
    from repro.runner.checkpoint import CheckpointManager
    from repro.store import ChunkedTrace

    factory = _saboteur_factory(args.scheme, _kill_trigger(args.records))
    start = time.perf_counter()
    with ChunkedTrace(args.path) as trace:
        outcome = Engine(
            checkpoint=CheckpointManager(args.checkpoint),
            checkpoint_every=CHECKPOINT_EVERY,
            resume=True,
        ).run(ExecutionPlan(traces=[trace], schemes=[factory]))
        if not outcome.ok:
            print(f"resumed sweep failed: {outcome.all_failures()}", file=sys.stderr)
            return 1
        result = outcome.result(args.scheme, trace.name)
    emit({
        "phase": "resume",
        "digest": result_digest(result),
        "seconds": round(time.perf_counter() - start, 1),
    })
    return 0


PHASES = {
    "gen": phase_gen,
    "serial": phase_serial,
    "pooled": phase_pooled,
    "interrupt": phase_interrupt,
    "resume": phase_resume,
}


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------


def run_phase(name: str, args, extra: list[str] | None = None) -> dict:
    """Run one phase as a subprocess and parse its JSON report line."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--phase", name,
        "--path", str(args.path),
        "--records", str(args.records),
        "--ceiling-mb", str(args.ceiling_mb),
        "--scheme", args.scheme,
        "--workload", args.workload,
        "--codec", args.codec,
        "--jobs", str(args.jobs),
    ]
    if extra:
        command.extend(extra)
    completed = subprocess.run(command, capture_output=True, text=True)
    if completed.returncode != 0:
        raise RuntimeError(
            f"phase {name} exited {completed.returncode}:\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    last = completed.stdout.strip().splitlines()[-1]
    report = json.loads(last)
    print(
        f"  {name:<9s} rss {report['rss_mb']:>6.1f} MB"
        + (f"  {report['seconds']:>7.1f}s" if "seconds" in report else "")
        + (f"  digest {report['digest'][:12]}" if "digest" in report else "")
    )
    return report


def verify_inmemory(args) -> None:
    """Small-scale proof that chunked digests equal in-memory columnar.

    The big file cannot be held in memory under the ceiling, so the
    cross-representation check runs at a scale that can — same code
    paths, just fewer records.
    """
    from repro.core.simulator import Simulator
    from repro.store import ChunkedTrace, pack_trace
    from repro.trace.columnar import ColumnarTrace
    from repro.workloads.registry import make_trace

    trace = make_trace(args.workload, length=args.verify_records)
    columnar = ColumnarTrace.from_trace(trace)
    simulator = Simulator()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "verify.ctrc"
        pack_trace(columnar, path, codec=args.codec, chunk_records=30_011)
        with ChunkedTrace(path) as chunked:
            chunked_digest = result_digest(simulator.run(chunked, args.scheme))
    columnar_digest = result_digest(simulator.run(columnar, args.scheme))
    if chunked_digest != columnar_digest:
        raise RuntimeError(
            f"chunked digest {chunked_digest} != in-memory columnar "
            f"digest {columnar_digest} at {args.verify_records} records"
        )
    print(f"  in-memory parity OK at {args.verify_records:,} records "
          f"(digest {columnar_digest[:12]})")


def orchestrate(args) -> int:
    problems: list[str] = []
    keep = args.path is not None
    workdir = None
    if args.path is None:
        workdir = tempfile.TemporaryDirectory(prefix="bigtrace-")
        args.path = Path(workdir.name) / "big.ctrc"
    args.path = Path(args.path)

    print(
        f"bigtrace smoke: {args.records:,} records of '{args.workload}' "
        f"({args.codec}), ceiling {args.ceiling_mb} MB, scheme {args.scheme}"
    )
    try:
        reports: dict[str, dict] = {}
        with tempfile.TemporaryDirectory(prefix="bigtrace-ckpt-") as ckpt:
            for name in ("gen", "serial", "pooled", "interrupt", "resume"):
                extra = (
                    ["--checkpoint", ckpt]
                    if name in ("interrupt", "resume")
                    else None
                )
                reports[name] = run_phase(name, args, extra)

        # In-process and *after* the phases: Linux ru_maxrss survives
        # fork+exec, so running this memory-hungry check first would
        # contaminate every phase's reported peak with the
        # orchestrator's.
        verify_inmemory(args)

        file_mb = args.path.stat().st_size / (1024 * 1024)
        ratio = file_mb / args.ceiling_mb
        print(f"  store    {file_mb:,.0f} MB on disk = {ratio:.1f}x the ceiling")
        if ratio < args.min_ratio:
            problems.append(
                f"store is only {ratio:.1f}x the RSS ceiling "
                f"(need >= {args.min_ratio}x); raise --records"
            )
        for name, report in reports.items():
            if report["rss_mb"] > args.ceiling_mb:
                problems.append(
                    f"phase {name} peaked at {report['rss_mb']} MB RSS, "
                    f"over the {args.ceiling_mb} MB ceiling"
                )
        digests = {
            name: reports[name]["digest"]
            for name in ("serial", "pooled", "resume")
        }
        if len(set(digests.values())) != 1:
            problems.append(f"result digests diverged: {digests}")
        position = reports["interrupt"]["chunk_position"]
        print(
            f"  resume from chunk {position[0]} offset {position[1]:,} "
            f"(record {reports['interrupt']['records_done']:,})"
        )
    finally:
        if workdir is not None and not keep:
            workdir.cleanup()

    if problems:
        print("bigtrace smoke FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("bigtrace smoke OK: bounded memory, bit-identical digests")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=DEFAULT_RECORDS)
    parser.add_argument("--ceiling-mb", type=int, default=DEFAULT_CEILING_MB)
    parser.add_argument("--min-ratio", type=float, default=DEFAULT_MIN_RATIO,
                        help="required file-size : RSS-ceiling ratio")
    parser.add_argument("--scheme", default=DEFAULT_SCHEME)
    parser.add_argument("--workload", default=DEFAULT_WORKLOAD)
    parser.add_argument("--codec", choices=("raw", "zlib"), default="raw",
                        help="raw maximizes file size per record and "
                        "exercises the zero-copy mmap path")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--verify-records", type=int, default=400_000,
                        help="scale of the in-memory columnar parity check")
    parser.add_argument("--path", default=None,
                        help="keep the store at this path (default: tmpdir)")
    parser.add_argument("--phase", choices=sorted(PHASES), default=None,
                        help=argparse.SUPPRESS)  # internal: subprocess entry
    parser.add_argument("--checkpoint", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.phase is not None:
        apply_ceiling(args.ceiling_mb)
        return PHASES[args.phase](args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
