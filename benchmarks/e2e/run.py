#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: four user workloads.

    python benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]

Runs each workload (all four by default) in fresh child processes:
after set-up, iterations for ``--seconds`` seconds.  Checks the
simulated outputs, prints every metric with its unit, median, quartiles
and sample count, and writes a results JSON (plus, when traced, a spans
JSONL) under ``benchmarks/e2e/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the medians of the gated end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (the default).
See README.md for the workloads and the metric glossary.

Exit status: 0 when every output checked out, 1 on a mismatch (no
metrics are reported then) or a failed run, 2 when the program under
test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from metrics import E2E, GATED, PER_LAYER, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("paper-artifacts", "roster-sweep", "ctrc-stream", "service-jobs")

#: Set-up-only child processes per run, besides the measuring one; the
#: reported ``setup_s`` is the median over all of them.
SETUP_PROBES = 4

#: Seconds a workload's children may take beyond the measuring window
#: (set-ups, verification, teardown) before they are killed.
CHILD_GRACE_S = 100.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every input seed (0: the paper traces)")
    parser.add_argument("--seconds", type=float, default=27.0,
                        help="measuring window per workload, from the end of set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add a traced iteration and report per-layer metrics")
    # Internal: the measuring (or set-up-only) process of one workload.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Child: one workload in a fresh process
# ----------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    # Imported here: only children import the program under test.
    from spans import Tracer
    from workloads import WORKLOADS as CLASSES

    workload = CLASSES[args.workload[0]](args.seed, Path(args.workdir))
    try:
        workload.setup()
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # Start another iteration while it (and the traced one) would
        # end no more than half an iteration past the deadline.
        deadline = time.time() + args.seconds
        reserve = workload.traced_cost if args.trace else 0.0
        samples = []
        while True:
            samples.append(workload.iteration(len(samples)))
            typical = statistics.median(s["iteration_s"] for s in samples[-5:])
            if (
                len(samples) >= workload.min_iterations
                and time.time() + typical * (0.5 + reserve) > deadline
            ):
                break
        rss = workload.peak_rss_mb()
        layers = None
        if args.trace:
            tracer = Tracer(workload.name)
            tracer.iteration = len(samples)
            layers = workload.traced(tracer, samples)
            tracer.dump(args.spans)
        workload.verify()
    finally:
        workload.close()
    print(json.dumps({
        "setup_s": setup_s,
        "iterations": len(samples),
        "e2e": workload.e2e(samples),
        "peak_rss_mb": rss,
        "layers": layers,
        "digest": workload.digest(),
        "problems": workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
    }))
    return 0


# ----------------------------------------------------------------------
# Parent: spawn, collect, check, report
# ----------------------------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def spawn(args: list[str], workdir: Path, timeout: float) -> dict[str, Any]:
    """Run one child process to completion; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(workdir)  # keep every temporary file in the checkout
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workdir", str(workdir), *args, "--spawned-at", repr(time.time())]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True, cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"child exceeded {timeout:.0f} s: {' '.join(args)}")
    if process.returncode != 0 or not stdout.strip():
        raise ChildFailed(f"child exited {process.returncode}: {' '.join(args)}")
    return json.loads(stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; do not pick up an enclosing repo
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def measure(name: str, seed: int, seconds: float, trace: int, stamp: str) -> dict[str, Any]:
    """The measuring child, then the set-up probes; the raw child report."""
    give_up = time.time() + seconds + CHILD_GRACE_S
    workdir = OUT / f"tmp-{stamp}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed)]
    spans = OUT / f"{stamp}.spans.jsonl"
    try:
        report = spawn(
            common + ["--seconds", repr(seconds), "--trace", str(trace),
                      "--spans", str(spans)],
            workdir,
            give_up - time.time(),
        )
        setups = [
            spawn(common + ["--setup-only"], workdir, give_up - time.time())["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["setup_s"] = [report["setup_s"]] + setups
    report["spans"] = str(spans.relative_to(ROOT)) if trace else None
    return report


def build_result(name: str, seed: int, seconds: float, trace: int,
                 report: dict[str, Any]) -> dict[str, Any]:
    samples = dict(report["e2e"])
    samples["setup_s"] = report["setup_s"]
    samples["peak_rss_mb"] = [report["peak_rss_mb"]]
    samples["failed_share"] = [report["failed"] / report["attempted"]]
    e2e = {}
    for metric, spec in E2E.items():
        if metric in samples:
            e2e[metric] = {**spec._asdict(), **summarize(samples[metric]),
                           "samples": samples[metric]}
    problems = list(report["problems"])
    if seed == 0:
        expected = json.loads(DIGESTS.read_text()).get(name)
        if report["digest"] != expected:
            problems.append(
                f"{name}: result digest {report['digest']} differs from the "
                f"recorded seed-0 digest {expected}"
            )
    per_layer = None
    if report["layers"] is not None:
        # The ungated end-to-end metrics are listed with the layers; a
        # metric the workload lacks, or a layer it never enters, reads 0.
        measured = {metric: e2e[metric]["median"] for metric in e2e}
        measured.update(report["layers"])
        per_layer = {metric: float(measured.get(metric, 0.0)) for metric in PER_LAYER}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_cores": cpu_cores(),
        "iterations": report["iterations"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "digest": report["digest"],
        "correct": not problems,
        "problems": problems,
        "e2e": e2e,
        "per_layer": per_layer,
        "spans": report["spans"],
    }


def print_report(result: dict[str, Any]) -> None:
    print(f"== {result['workload']}: seed {result['seed']}, {result['seconds']:g} s, "
          f"trace {result['trace']}, {result['iterations']} iterations, "
          f"cpu_cores {result['cpu_cores']} ==")
    print(f"{'end-to-end':<22} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'n':>4}  bound")
    for metric, stats in result["e2e"].items():
        gated = " (gated)" if stats["gated"] else ""
        print(f"{metric:<22} {stats['unit']:<6} {stats['median']:>11.6g} "
              f"{stats['q1']:>11.6g} {stats['q3']:>11.6g} {stats['n']:>4}  "
              f"{stats['bound']:.0%}{gated}")
    if result["per_layer"] is not None:
        print(f"{'per-layer':<42} {'unit':<6} {'value':>12}")
        for metric, value in result["per_layer"].items():
            print(f"{metric:<42} {PER_LAYER[metric][0]:<6} {value:>12.6g}")
    verdict = "ok" if result["correct"] else "MISMATCH"
    print(f"correctness: {verdict} (digest {result['digest']}); "
          f"{result['failed']} of {result['attempted']} operations failed")
    for problem in result["problems"]:
        print(f"  {problem}")


def result_line(result: dict[str, Any]) -> str:
    metrics: dict[str, Any] = {}
    if result["correct"]:
        if result["trace"]:
            metrics = {m: {"value": v, "unit": PER_LAYER[m][0]}
                       for m, v in result["per_layer"].items()}
        else:
            metrics = {m: {"value": result["e2e"][m]["median"],
                           "unit": result["e2e"][m]["unit"]}
                       for m in GATED}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the program under test is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    OUT.mkdir(exist_ok=True)
    status = 0
    for name in args.workload or WORKLOADS:
        stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{name}-seed{args.seed}-trace{args.trace}"
        try:
            report = measure(name, args.seed, args.seconds, args.trace, stamp)
        except ChildFailed as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            status = 1
            continue
        result = build_result(name, args.seed, args.seconds, args.trace, report)
        (OUT / f"{stamp}.json").write_text(json.dumps(result, indent=1) + "\n")
        print_report(result)
        print(result_line(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
