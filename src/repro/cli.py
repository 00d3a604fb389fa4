"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show available protocols and workloads.
* ``generate`` — write a synthetic workload trace to a file.
* ``trace`` — the chunked store (``.ctrc``, see ``docs/TRACESTORE.md``):
  ``trace pack`` converts any trace file, ``trace info`` inspects an
  index (``--verify`` re-hashes the content), ``trace gen`` streams a
  workload straight to disk at bounded memory.  Every command that
  accepts a trace file also accepts ``.ctrc`` transparently.
* ``stats`` — Table-3 style statistics of a trace file or workload.
* ``simulate`` — run one or more schemes over a trace and report bus
  cycles per reference under both bus models.
* ``artifact`` — regenerate one of the paper's tables/figures by id
  (``table1`` .. ``table5``, ``figure1`` .. ``figure5``,
  ``section51``, ``section52``, ``section6-sequential``,
  ``section6-dir1b``, ``section6-sweep``, ``section6-storage``,
  ``section5-system``, or ``all``).
* ``report`` — write the complete evaluation to a Markdown file.
* ``verify`` — the conformance gate.  By default, exhaustively explore
  each protocol's single-block state space; ``--fuzz N`` drives seeded
  adversarial traces through the unified harness (oracle + invariants +
  cross-protocol differentials, with automatic failure shrinking),
  ``--corpus DIR`` replays the golden regression corpus, and
  ``--mutation`` asserts the fault-injection kill rate (see
  ``docs/VERIFICATION.md``).
* ``run`` — fault-tolerant sweep: schemes × traces with per-cell error
  isolation, retry with backoff, and ``--checkpoint``/``--resume``.
* ``serve`` — run the simulation service (HTTP/JSON job API backed by
  the parallel executor and result cache; see ``docs/SERVICE.md``).
  ``--fabric-db`` switches cell execution to the durable worker fleet.
* ``submit`` — POST a sweep job to a running service (``--wait`` /
  ``--stream`` follow it to completion).
* ``status`` — query a running service: server stats, or one job.
* ``work`` — join a durable fleet: lease cells from a fabric database
  (``--db``), simulate, heartbeat, settle; exits when the queue drains.
* ``dlq`` — list a fabric database's dead-letter queue (cells that
  burned through their attempt budget).
* ``chaos`` — the crash-recovery harness: run a sweep on N real worker
  processes, SIGKILL one mid-cell, assert results bit-identical to a
  serial run with exactly one reassignment and zero duplicates.

Failures map to distinct exit codes so scripts can react per category:
``TraceFormatError`` exits 3, ``ProtocolError``/``InvariantViolation``
exit 4, ``ConfigurationError`` exits 5, ``ServiceError`` exits 6,
``ConformanceError`` exits 7, any other ``ReproError`` exits 2.  The
failure category is printed on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from repro.errors import (
    ConfigurationError,
    ConformanceError,
    InvariantViolation,
    ProtocolError,
    ReproError,
    ServiceError,
    TraceFormatError,
)

if TYPE_CHECKING:
    from repro.trace.stream import Trace

# Each command imports what it uses, so a process loads only its own
# verb's modules (``repro serve`` never loads the report stack).


_ARTIFACT_IDS = (
    "table1", "table2", "table3", "table4", "table5",
    "figure1", "figure2", "figure3", "figure4", "figure5",
    "section51", "section52", "section6-sequential", "section6-dir1b",
    "section6-sweep", "section6-storage", "section5-system",
    "finite-capacity", "conclusions",
)

#: The protocol registry's names (``available_protocols()``), spelled
#: out so that building the parser loads no protocol module; a test
#: holds the two equal.
_SCHEME_NAMES = (
    "adaptive", "berkeley", "coarse-vector", "dir0b", "dir1nb", "dirib",
    "dirinb", "dirnnb", "dragon", "illinois", "write-once", "wti", "yenfu",
)


def _resolve_trace(args) -> Trace:
    """A trace from ``--trace-file`` or generated from ``--workload``."""
    from repro.trace.io import load_trace
    from repro.workloads.registry import make_any_trace

    if getattr(args, "trace_file", None):
        return load_trace(args.trace_file)
    return make_any_trace(args.workload, length=args.length)


def cmd_list(args) -> int:
    """``repro list``: print protocols and workloads.

    ``--json`` emits the machine-readable registry the service client
    uses to validate job specs without importing this package.
    """
    from repro.protocols.registry import available_protocols
    from repro.workloads.registry import known_workloads

    if getattr(args, "json", False):
        print(
            json.dumps(
                {
                    "protocols": list(available_protocols()),
                    "workloads": known_workloads(),
                    "sharer_keys": ["pid", "cpu"],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print("protocols:")
    for name in available_protocols():
        print(f"  {name}")
    print("workloads:")
    for name in known_workloads():
        print(f"  {name}")
    return 0


def cmd_generate(args) -> int:
    """``repro generate``: write a synthetic trace file."""
    from repro.trace.io import write_trace_binary, write_trace_file
    from repro.workloads.registry import make_any_trace

    trace = make_any_trace(args.workload, length=args.length, seed=args.seed)
    if args.format == "binary":
        count = write_trace_binary(trace.records, args.output)
    else:
        count = write_trace_file(trace.records, args.output)
    print(f"wrote {count:,} records of '{trace.name}' to {args.output}")
    return 0


def cmd_trace_pack(args) -> int:
    """``repro trace pack``: convert any trace file to a ``.ctrc`` store."""
    from repro.store import pack_trace
    from repro.trace.io import load_trace

    trace = load_trace(args.input, lazy=True, lenient=args.lenient)
    meta = pack_trace(
        trace,
        args.output,
        codec=args.codec,
        chunk_records=args.chunk_records,
        level=args.level,
    )
    if trace.report.skipped:
        print(f"warning: {args.input}: {trace.report.summary()}", file=sys.stderr)
    print(
        f"packed {meta['records']:,} records of '{meta['name']}' into "
        f"{len(meta['chunks'])} {args.codec} chunks at {args.output}"
    )
    return 0


def cmd_trace_info(args) -> int:
    """``repro trace info``: inspect a ``.ctrc`` store's index."""
    from repro.report.tables import format_table
    from repro.store import ChunkedTrace

    with ChunkedTrace(args.path) as trace:
        meta = trace.meta
        if args.json:
            payload = dict(meta)
            if args.verify:
                payload["verified_fingerprint"] = trace.fingerprint()
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        stored = sum(chunk.length for chunk in trace.chunks)
        raw = len(trace) * 26
        rows = [
            ("name", meta.get("name", "")),
            ("records", f"{len(trace):,}"),
            ("chunks", trace.num_chunks),
            ("chunk records", meta.get("chunk_records", "")),
            ("codecs", ", ".join(sorted({c.codec for c in trace.chunks})) or "-"),
            ("stored bytes", f"{stored:,}"),
            ("raw bytes", f"{raw:,}"),
            ("compression", f"{raw / stored:.2f}x" if stored else "-"),
            ("cpus", len(trace.cpus)),
            ("pids", len(trace.pids)),
            ("fingerprint", meta.get("fingerprint", "")[:16] + "..."),
        ]
        if args.verify:
            verified = trace.fingerprint()
            rows.append(
                (
                    "content check",
                    "OK" if verified == meta.get("fingerprint") else
                    f"MISMATCH ({verified[:16]}...)",
                )
            )
        print(format_table(["field", "value"], rows, title=f"store {args.path}"))
        if args.verify and trace.fingerprint() != meta.get("fingerprint"):
            return 1
    return 0


def cmd_trace_gen(args) -> int:
    """``repro trace gen``: stream a workload straight into a ``.ctrc`` file.

    The paper workloads stream one scheduling round's columns at a time
    into the chunked writer, so the trace length is limited by disk, not
    RAM.  The ``micro-`` and ``modern-`` generators are small by design:
    they are materialized, then packed from their columns.
    """
    from repro.store import pack_trace, write_stream
    from repro.workloads.registry import make_any_trace, stream_trace

    options = {
        "codec": args.codec,
        "chunk_records": args.chunk_records,
        "level": args.level,
    }
    if args.workload.startswith(("micro-", "modern-")):
        trace = make_any_trace(args.workload, length=args.length, seed=args.seed)
        meta = pack_trace(trace, args.output, name=args.workload, **options)
    else:
        kwargs = {} if args.seed is None else {"seed": args.seed}
        meta = write_stream(
            stream_trace(args.workload, length=args.length, **kwargs),
            args.output,
            args.workload,
            **options,
        )
    print(
        f"streamed {meta['records']:,} records of '{args.workload}' into "
        f"{len(meta['chunks'])} {args.codec} chunks at {args.output}"
    )
    return 0


def cmd_stats(args) -> int:
    """``repro stats``: summarize a trace."""
    from repro.report.tables import format_table
    from repro.trace.stats import compute_statistics

    trace = _resolve_trace(args)
    stats = compute_statistics(trace, trace.name)
    rows = [
        ("references", stats.total_refs),
        ("instructions", stats.instr_refs),
        ("data reads", stats.data_reads),
        ("data writes", stats.data_writes),
        ("user refs", stats.user_refs),
        ("system refs", stats.system_refs),
        ("lock refs", stats.lock_refs),
        ("spin reads", stats.spin_reads),
        ("read/write ratio", round(stats.read_write_ratio, 2)),
        ("spin share of reads %", round(100 * stats.spin_read_fraction_of_reads, 2)),
    ]
    print(format_table(["statistic", "value"], rows, title=f"trace '{trace.name}'"))
    return 0


def cmd_simulate(args) -> int:
    """``repro simulate``: run schemes over a trace.

    ``--geometry LINESxASSOC[@dir:N]`` simulates finite caches (and,
    with ``@dir:N``, a finite directory); schemes may also carry their
    own ``@geometry`` suffix, which wins over the flag.
    """
    from repro.core.experiment import parse_scheme, scheme_key
    from repro.core.simulator import Simulator
    from repro.cost.bus import non_pipelined_bus, pipelined_bus
    from repro.report.tables import format_table

    trace = _resolve_trace(args)
    simulator = Simulator(sharer_key=args.sharer_key)
    pipe, nonpipe = pipelined_bus(), non_pipelined_bus()
    rows = []
    for spec in args.schemes:
        name, options = parse_scheme(spec)
        if args.geometry is not None and "geometry" not in options:
            options["geometry"] = args.geometry
        key = scheme_key(name, options)
        result = simulator.run(trace, name, **options)
        frequencies = result.frequencies()
        rows.append(
            (
                key,
                result.bus_cycles_per_reference(pipe),
                result.bus_cycles_per_reference(nonpipe),
                100 * frequencies.data_miss_fraction,
                result.transactions_per_reference(),
            )
        )
    print(format_table(
        ["scheme", "cyc/ref (pipe)", "cyc/ref (non-pipe)", "miss %", "txn/ref"],
        rows,
        title=f"trace '{trace.name}' ({len(trace):,} refs)",
    ))
    return 0


def cmd_artifact(args) -> int:
    """``repro artifact``: regenerate a paper table/figure."""
    from repro.report.experiments import PaperExperiments

    experiments = PaperExperiments(length=args.length)
    if args.id == "all":
        for artifact in experiments.all_artifacts():
            print(artifact.text)
            print()
        return 0
    method = getattr(experiments, args.id.replace("-", "_"))
    print(method().text)
    return 0


def cmd_report(args) -> int:
    """``repro report``: write the Markdown evaluation report."""
    from repro.report.markdown import write_report

    path = write_report(args.output, length=args.length)
    print(f"wrote evaluation report to {path}")
    return 0


def cmd_transitions(args) -> int:
    """``repro transitions``: print a derived transition table."""
    from repro.report.transitions import transition_table_text

    caches = args.caches
    if args.scheme == "coarse-vector" and caches & (caches - 1):
        caches = 4
    print(transition_table_text(args.scheme, num_caches=caches))
    return 0


def _shrink_fuzz_failures(args, report, traces) -> None:
    """Reduce failing fuzz traces and optionally bank them in the corpus."""
    from repro.verify import ConformanceSpec, Corpus, failure_predicate, shrink_trace

    corpus = Corpus(args.update_corpus) if args.update_corpus else None
    by_name = {trace.name: trace for trace in traces}
    for finding in report.findings:
        if finding.scheme == "*":  # differential findings have no one cell
            continue
        trace = by_name.get(finding.trace_name)
        if trace is None:
            continue
        predicate = failure_predicate(ConformanceSpec(finding.scheme))
        if not predicate(trace.records):
            continue  # not reproducible as a lone in-process cell
        minimized = shrink_trace(trace, predicate)
        print(
            f"shrunk {finding.trace_name} for {finding.scheme}: "
            f"{len(trace.records)} -> {len(minimized.records)} refs",
            file=sys.stderr,
        )
        if corpus is not None:
            path = corpus.save(
                minimized,
                {
                    "scheme": finding.scheme,
                    "kind": finding.kind,
                    "seed": args.seed,
                    "source": finding.trace_name,
                },
            )
            if path is not None:
                print(f"saved reproducer: {path}", file=sys.stderr)


def cmd_verify(args) -> int:
    """``repro verify``: the unified conformance gate.

    With no mode flags this is the historical behavior: model-check
    each scheme's single-block state space (exit 1 on violations).  The
    conformance modes — ``--fuzz``, ``--corpus``, ``--mutation`` — run
    the :mod:`repro.verify` harness instead and raise
    :class:`~repro.errors.ConformanceError` (exit 7) on any failure.
    """
    from repro.core.statespace import default_caches_for, explore_block_states

    if not (args.fuzz or args.corpus or args.mutation):
        failures = 0
        for scheme in args.schemes:
            num_caches = default_caches_for(scheme, args.caches)
            report = explore_block_states(scheme, num_caches=num_caches)
            status = "ok" if report.clean else "INVARIANT VIOLATIONS"
            print(
                f"{scheme:14s} caches={num_caches} states={report.states:5d} "
                f"transitions={report.transitions:6d} {status}"
            )
            for violation in report.violations[:5]:
                print(f"    {violation}")
            failures += 0 if report.clean else 1
        return 1 if failures else 0

    from repro.verify import (
        ConformanceChecker,
        Corpus,
        TraceFuzzer,
        run_mutation_testing,
    )

    problems: list[str] = []
    checker = ConformanceChecker(schemes=args.schemes, jobs=args.jobs)

    if args.corpus:
        corpus = Corpus(args.corpus)
        report = corpus.replay(checker)
        print(
            f"corpus: {len(corpus)} reproducers, {report.cells} cells, "
            f"{len(report.findings)} findings"
        )
        for finding in report.findings:
            print(f"  {finding}", file=sys.stderr)
        if report.findings:
            problems.append(f"corpus replay: {len(report.findings)} findings")

    if args.fuzz:
        fuzzer = TraceFuzzer(seed=args.seed)
        traces = list(fuzzer.traces(args.fuzz))
        geometries: list = [None]
        if args.finite_geometry:
            geometries.append(args.finite_geometry)
        report = checker.check(traces, specs=checker.specs_for(geometries))
        print(
            f"fuzz: seed={args.seed} traces={len(traces)} "
            f"schemes={len(report.schemes)} cells={report.cells} "
            f"findings={len(report.findings)}"
        )
        print(f"digest: {report.digest()}")
        for finding in report.findings:
            print(f"  {finding}", file=sys.stderr)
        if report.findings:
            problems.append(f"fuzz: {len(report.findings)} findings")
            if not args.no_shrink:
                _shrink_fuzz_failures(args, report, traces)

    if args.mutation:
        mutation = run_mutation_testing(
            schemes=args.schemes, seed=args.seed, jobs=args.jobs
        )
        print(f"mutation: {mutation.summary()}")
        if mutation.survivors:
            problems.append(f"mutation: {len(mutation.survivors)} survivors")
        from repro.verify import run_eviction_mutation_testing

        eviction = run_eviction_mutation_testing(
            schemes=args.schemes, seed=args.seed
        )
        print(f"eviction mutation: {eviction.summary()}")
        if eviction.survivors:
            problems.append(
                f"eviction mutation: {len(eviction.survivors)} survivors"
            )

    if problems:
        raise ConformanceError("; ".join(problems))
    print("conformance: ok")
    return 0


class _RunningLines:
    """``repro run`` observer: one "running X on Y ..." stderr line per cell."""

    def plan_started(self, plan) -> None:
        pass

    def cell_started(self, task) -> None:
        print(f"running {task.scheme_key} on {task.trace_name} ...", file=sys.stderr)

    def cell_retry(self, task, failed_attempts, error, delay) -> None:
        pass

    def cell_finished(self, task, outcome) -> None:
        pass

    def cache_hit(self, task) -> None:
        pass

    def cache_miss(self, task) -> None:
        pass

    def plan_finished(self, plan, result) -> None:
        pass


class _ProgressLines(_RunningLines):
    """``--progress`` observer: every engine event as a stderr line."""

    def cell_retry(self, task, failed_attempts, error, delay) -> None:
        print(
            f"retrying {task.scheme_key} on {task.trace_name} "
            f"(attempt {failed_attempts} failed: {type(error).__name__}, "
            f"next in {delay:.2f}s)",
            file=sys.stderr,
        )

    def cell_finished(self, task, outcome) -> None:
        if outcome.source != "simulated":
            return  # cache hits have their own line; restored cells none
        if outcome.ok:
            print(
                f"finished {task.scheme_key} on {task.trace_name} "
                f"in {outcome.duration_s:.2f}s "
                f"({outcome.attempts} attempt{'s' if outcome.attempts != 1 else ''})",
                file=sys.stderr,
            )
        else:
            print(
                f"failed {task.scheme_key} on {task.trace_name}: "
                f"{outcome.category}: {outcome.message}",
                file=sys.stderr,
            )

    def cache_hit(self, task) -> None:
        print(
            f"cache hit: {task.scheme_key} on {task.trace_name}", file=sys.stderr
        )


def cmd_run(args) -> int:
    """``repro run``: fault-tolerant sweep with checkpoint/resume.

    Builds an :class:`~repro.engine.plan.ExecutionPlan` from the
    arguments and runs it on a configured
    :class:`~repro.engine.core.Engine` — the same executor behind the
    paper artifacts and the simulation service.  Progress lines come
    from an observer, like every other engine event.
    """
    from repro.core.simulator import Simulator
    from repro.cost.bus import non_pipelined_bus, pipelined_bus
    from repro.engine import (
        Engine,
        EngineMetrics,
        ExecutionPlan,
        ObserverGroup,
        RetryPolicy,
    )
    from repro.report.tables import format_table
    from repro.runner.cache import ResultCache
    from repro.runner.checkpoint import CheckpointManager
    from repro.trace.io import load_trace
    from repro.workloads.registry import make_any_trace

    # Trace files are read lazily so a corrupt file is contained inside
    # its own cells instead of aborting the whole sweep at load time.
    traces = []
    for path in args.trace_files or []:
        traces.append(load_trace(path, lazy=True, lenient=args.lenient))
    for workload in args.workloads or []:
        traces.append(make_any_trace(workload, length=args.length))
    if not traces:
        traces = [make_any_trace("pops", length=args.length)]

    plan = ExecutionPlan(
        traces=traces,
        schemes=list(args.schemes),
        simulator=Simulator(sharer_key=args.sharer_key),
    )
    metrics = EngineMetrics()
    observers = [metrics, _ProgressLines() if args.progress else _RunningLines()]
    engine = Engine(
        retry=RetryPolicy(max_attempts=args.retries, backoff_base=args.backoff),
        strict=args.strict,
        checkpoint=CheckpointManager(args.checkpoint) if args.checkpoint else None,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        jobs=args.jobs,
        batch=args.batch,
        result_cache=ResultCache(args.result_cache) if args.result_cache else None,
        observer=ObserverGroup(observers),
    )
    outcome = engine.run(plan)

    if args.progress:
        counters = metrics.snapshot()
        print(
            "engine: "
            f"{int(counters.get('cells_ok', 0))} ok, "
            f"{int(counters.get('cells_failed', 0))} failed, "
            f"{int(counters.get('cell_retries', 0))} retries, "
            f"{int(counters.get('cache_hits', 0))} cache hits, "
            f"{int(counters.get('cache_misses', 0))} cache misses, "
            f"{counters.get('sim_seconds', 0.0):.2f}s simulating",
            file=sys.stderr,
        )

    pipe, nonpipe = pipelined_bus(), non_pipelined_bus()
    rows = []
    for scheme in outcome.schemes:
        for trace_name, result in outcome.results[scheme].items():
            rows.append(
                (
                    scheme,
                    trace_name,
                    result.bus_cycles_per_reference(pipe),
                    result.bus_cycles_per_reference(nonpipe),
                    100 * result.frequencies().data_miss_fraction,
                )
            )
    if rows:
        print(format_table(
            ["scheme", "trace", "cyc/ref (pipe)", "cyc/ref (non-pipe)", "miss %"],
            rows,
            title=f"resilient sweep ({len(rows)} cells ok)",
        ))
    failures = outcome.all_failures()
    for failure in failures:
        print(f"cell failed: {failure}", file=sys.stderr)
    if failures:
        print(
            f"{len(failures)} of {len(rows) + len(failures)} cells failed",
            file=sys.stderr,
        )
    return 1 if failures else 0


def cmd_bench(args) -> int:
    """``repro bench``: measured throughput with history and gates.

    Measures cold-start processes, the serial transition-table fast path
    per scheme, every protocol's ``Simulator.run`` throughput, trace
    generation per paper trace, and the pooled sweep at several worker
    counts (warmup + best-of-repeats),
    refreshes ``BENCH_throughput.json``, appends to
    ``BENCH_history.jsonl``, and exits nonzero when a headline metric
    regresses more than ``--threshold`` below its rolling baseline (or
    when ``--gate-scaling`` finds jobs=4 slower than jobs=1).
    """
    import json as json_module
    from pathlib import Path

    from repro.report import bench
    from repro.report.tables import format_table

    report = bench.build_report(
        length=args.length,
        schemes=args.schemes,
        jobs_list=tuple(args.jobs),
        repeats=args.repeats,
        warmup=args.warmup,
        batch=args.batch,
    )

    startup = report["startup"]
    print(format_table(
        ["process", "wall s", "repro modules"],
        [
            (name, entry["wall_s"], entry["modules"])
            for name, entry in startup["probes"].items()
        ],
        title=f"cold start (median of {startup['runs']} fresh processes)",
    ))
    rows = [
        (
            scheme,
            entry["generic_refs_per_sec"],
            entry["table_refs_per_sec"],
            entry["speedup_table_vs_generic"],
        )
        for scheme, entry in report["schemes"].items()
    ]
    print(format_table(
        ["scheme", "generic refs/s", "table refs/s", "speedup"],
        rows,
        title=f"serial throughput ({args.length} refs, best of {args.repeats})",
    ))
    print(format_table(
        ["scheme", "path", "refs/s"],
        [
            (scheme, entry["path"], entry["refs_per_sec"])
            for scheme, entry in report["generic"].items()
        ],
        title="every protocol on Simulator.run",
    ))
    finite = report.get("finite")
    if finite is not None:
        print(format_table(
            ["scheme", "finite refs/s", "infinite refs/s", "slowdown"],
            [
                (
                    scheme,
                    entry["finite_refs_per_sec"],
                    entry["infinite_refs_per_sec"],
                    entry["slowdown_vs_infinite"],
                )
                for scheme, entry in finite["schemes"].items()
            ],
            title=f"finite-capacity tables ({finite['geometry']})",
        ))
    streaming = report.get("streaming")
    if streaming is not None:
        print(format_table(
            ["scheme", "chunked refs/s"],
            [
                (scheme, entry["chunked_refs_per_sec"])
                for scheme, entry in streaming["schemes"].items()
            ],
            title=(
                f"chunk-streamed .ctrc ({streaming['chunks']} chunks, "
                f"{streaming['compression']}x compression, peak rss "
                f"{streaming['peak_rss_mb']} MB)"
            ),
        ))
    generation = report.get("generation")
    if generation is not None:
        print(format_table(
            [
                "workload", "make_trace refs/s", "stream_trace refs/s",
                "fingerprint refs/s",
            ],
            [
                (
                    name,
                    entry["refs_per_sec"],
                    entry["stream_refs_per_sec"],
                    entry["fingerprint_refs_per_sec"],
                )
                for name, entry in generation["workloads"].items()
            ],
            title=f"trace generation ({generation['length']} refs)",
        ))
    sweep = report["parallel_sweep"]
    print(format_table(
        ["jobs", "seconds", "refs/s"],
        [
            (jobs, sweep["seconds_by_jobs"][jobs], rate)
            for jobs, rate in sweep["refs_per_sec_by_jobs"].items()
        ],
        title=f"pooled sweep ({sweep['cells']} cells, {sweep['refs_total']} refs)",
    ))
    full = report.get("parallel_sweep_full_roster")
    if full is not None:
        print(format_table(
            ["jobs", "seconds", "refs/s"],
            [
                (jobs, full["seconds_by_jobs"][jobs], rate)
                for jobs, rate in full["refs_per_sec_by_jobs"].items()
            ],
            title=(
                f"full-roster sweep ({full['cells']} cells, "
                f"{full['refs_total']} refs)"
            ),
        ))

    history_path = Path(args.history)
    history = bench.load_history(history_path)
    problems: list[str] = []
    if not args.no_regression_gate:
        problems.extend(
            bench.find_regressions(report, history, threshold=args.threshold)
        )
        problems.extend(bench.finite_kernel_violations(report))
    if args.gate_scaling:
        if report.get("cpu_cores", 0) < 2:
            print(
                "bench gate: scaling gate skipped — only "
                f"{report.get('cpu_cores')} usable CPU core(s), parallel "
                "speedup is not measurable here",
                file=sys.stderr,
            )
        violation = bench.scaling_violation(report)
        if violation is not None:
            problems.append(violation)

    if not args.no_history:
        bench.append_history(report, history_path)
    json_path = Path(args.json)
    json_path.write_text(
        json_module.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {json_path} and {history_path}", file=sys.stderr)

    for problem in problems:
        print(f"bench gate: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_serve(args) -> int:
    """``repro serve``: run the simulation service until SIGTERM/SIGINT."""
    import signal

    from repro.engine import RetryPolicy
    from repro.runner.cache import ResultCache
    from repro.service.api import ServiceServer
    from repro.service.scheduler import Scheduler

    scheduler = Scheduler(
        workers=args.workers,
        sim_jobs=args.jobs,
        result_cache=ResultCache(args.result_cache) if args.result_cache else None,
        state_dir=args.state_dir,
        retry=RetryPolicy(max_attempts=args.retries),
        fabric_db=args.fabric_db,
        fabric_workers=args.fabric_workers,
        lease_s=args.lease,
    )
    server = ServiceServer(scheduler, host=args.host, port=args.port)

    default_mode = "checkpoint" if args.state_dir else "drain"

    def on_signal(_signum, _frame) -> None:
        # SIGINT and SIGTERM take the same graceful path; repeats while
        # the event is already set are no-ops, not a second shutdown.
        server.stop_event.set()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    server.start()
    print(f"repro service listening on {server.url}", flush=True)
    if args.state_dir:
        print(f"state dir: {args.state_dir} (checkpoint shutdown)", flush=True)
    if args.fabric_db:
        print(
            f"fabric db: {args.fabric_db} "
            f"({args.fabric_workers} in-process workers)",
            flush=True,
        )
    try:
        while not server.stop_event.wait(0.2):
            pass
    finally:
        # An impatient ^C ^C must not raise KeyboardInterrupt inside
        # the checkpoint write and tear a half-persisted state dir.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        mode = server.requested_shutdown_mode or default_mode
        try:
            print(f"shutting down ({mode}) ...", file=sys.stderr, flush=True)
        except OSError:
            # ^C in a pipeline (`repro serve | tee ...`) kills the pipe
            # peer too; a dead stderr must not skip the checkpoint.
            pass
        server.stop(mode=mode, timeout=args.drain_timeout)
    return 0


def cmd_work(args) -> int:
    """``repro work``: one durable-fleet member on a fabric database."""
    import signal

    from repro.fabric.chaos import hook_from_env
    from repro.fabric.worker import FabricWorker
    from repro.runner.cache import ResultCache

    worker = FabricWorker(
        args.db,
        worker_id=args.worker_id,
        result_cache=ResultCache(args.cache) if args.cache else None,
        lease_s=args.lease,
        poll_s=args.poll,
        drain=not args.forever,
        protocol_hook=hook_from_env(),
    )

    def on_signal(_signum, _frame) -> None:
        worker.stop()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    processed = worker.run(max_cells=args.max_cells)
    print(
        f"worker {worker.worker_id}: {processed} cells "
        f"({worker.settled['simulated']} simulated, "
        f"{worker.settled['cache']} cache, "
        f"{worker.settled['error']} errors)",
        file=sys.stderr,
    )
    return 0


def cmd_dlq(args) -> int:
    """``repro dlq``: list dead-lettered cells (exit 1 when any exist)."""
    from repro.fabric.queue import DurableCellQueue
    from repro.report.tables import format_table

    queue = DurableCellQueue(args.db)
    dead = queue.dead_letters()
    if args.json:
        print(json.dumps(dead, indent=2, sort_keys=True))
    elif not dead:
        print("dead-letter queue is empty")
    else:
        rows = [
            (
                entry["job_id"],
                entry["idx"],
                entry["scheme_key"],
                entry["trace_label"],
                f"{entry['attempts']}/{entry['max_attempts']}",
                entry["reassignments"],
                entry["last_category"] or "?",
            )
            for entry in dead
        ]
        print(format_table(
            ["job", "cell", "scheme", "trace", "attempts", "reassigned",
             "last error"],
            rows,
            title=f"dead letters in {args.db}",
        ))
    return 1 if dead else 0


def cmd_chaos(args) -> int:
    """``repro chaos``: kill-a-worker crash recovery, asserted end to end."""
    import tempfile
    from pathlib import Path

    from repro.fabric.chaos import run_chaos

    spec_payload = None
    if args.spec_file:
        with open(args.spec_file, "r", encoding="utf-8") as handle:
            spec_payload = json.load(handle)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        db = Path(args.db) if args.db else Path(scratch) / "fabric.db"
        report = run_chaos(
            db=db,
            spec_payload=spec_payload,
            workers=args.workers,
            seed=args.seed,
            kill=not args.no_kill,
            lease_s=args.lease,
            timeout_s=args.timeout,
        )
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["ok"]:
        failed = [name for name, ok in report["checks"].items() if not ok]
        print(f"chaos checks failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_submit(args) -> int:
    """``repro submit``: POST a sweep job to a running service."""
    from repro.service.client import ServiceClient

    if args.spec_file:
        with open(args.spec_file, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    else:
        spec = {
            "schemes": list(args.schemes),
            "traces": [
                {"workload": workload, "length": args.length,
                 **({"seed": args.seed} if args.seed is not None else {})}
                for workload in args.workloads
            ] + [{"path": path} for path in (args.trace_files or [])],
            "sharer_key": args.sharer_key,
            "priority": args.priority,
            "dedup": args.dedup,
        }

    client = ServiceClient(args.server, timeout=args.timeout)
    job = client.submit(spec)
    job_id = job["id"]
    if not (args.wait or args.stream):
        print(json.dumps(job, indent=2, sort_keys=True))
        return 0
    failed_cells = 0
    for event in client.stream_events(job_id):
        if args.stream:
            print(json.dumps(event, sort_keys=True), flush=True)
        if event.get("type") == "cell" and event.get("status") == "error":
            failed_cells += 1
        if event.get("type") == "job" and event.get("state") in (
            "done", "failed", "cancelled"
        ):
            break
    final = client.job(job_id)
    if not args.stream:
        print(json.dumps(final, indent=2, sort_keys=True))
    if final.get("state") != "done" or failed_cells:
        return 1
    return 0


def cmd_status(args) -> int:
    """``repro status``: server stats, or one job's status."""
    from repro.service.client import ServiceClient

    client = ServiceClient(args.server, timeout=args.timeout)
    if args.job_id:
        print(json.dumps(client.job(args.job_id), indent=2, sort_keys=True))
    else:
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line parser."""
    from repro.store.format import DEFAULT_CHUNK_RECORDS
    from repro.workloads.registry import DEFAULT_LENGTH, known_workloads

    workloads = known_workloads()
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Trace-driven evaluation of directory schemes for cache coherence "
            "(Agarwal, Simoni, Hennessy & Horowitz, ISCA 1988)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list protocols and workloads")
    list_cmd.add_argument(
        "--json", action="store_true",
        help="machine-readable registry (for service clients / job specs)",
    )
    list_cmd.set_defaults(func=cmd_list)

    generate = sub.add_parser("generate", help="write a synthetic trace to a file")
    generate.add_argument("workload", choices=workloads)
    generate.add_argument("output")
    generate.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--format", choices=("text", "binary"), default="text")
    generate.set_defaults(func=cmd_generate)

    trace = sub.add_parser(
        "trace", help="chunked trace store (.ctrc): pack, inspect, generate"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def add_store_options(command):
        """Writer knobs shared by the pack and gen verbs."""
        command.add_argument(
            "--codec", choices=("zlib", "raw"), default="zlib",
            help="per-chunk storage codec (raw decodes zero-copy from mmap)",
        )
        command.add_argument(
            "--chunk-records", type=int, default=DEFAULT_CHUNK_RECORDS,
            metavar="N", help="references per chunk (the memory granule)",
        )
        command.add_argument(
            "--level", type=int, default=6,
            help="zlib compression level (ignored for raw)",
        )

    pack = trace_sub.add_parser(
        "pack", help="convert a text/binary/ctrc trace file to .ctrc"
    )
    pack.add_argument("input")
    pack.add_argument("output")
    pack.add_argument("--lenient", action="store_true")
    add_store_options(pack)
    pack.set_defaults(func=cmd_trace_pack)

    info = trace_sub.add_parser("info", help="inspect a .ctrc store's index")
    info.add_argument("path")
    info.add_argument("--json", action="store_true")
    info.add_argument(
        "--verify", action="store_true",
        help="re-hash every chunk and check the stored fingerprint",
    )
    info.set_defaults(func=cmd_trace_info)

    gen = trace_sub.add_parser(
        "gen", help="stream a workload straight to .ctrc at bounded memory"
    )
    gen.add_argument("workload", choices=workloads)
    gen.add_argument("output")
    gen.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    gen.add_argument("--seed", type=int, default=None)
    add_store_options(gen)
    gen.set_defaults(func=cmd_trace_gen)

    def add_trace_source(command):
        """Attach the --workload/--trace-file option group."""
        source = command.add_mutually_exclusive_group()
        source.add_argument("--workload", choices=workloads, default="pops")
        source.add_argument("--trace-file")
        command.add_argument("--length", type=int, default=DEFAULT_LENGTH)

    stats = sub.add_parser("stats", help="summarize a trace")
    add_trace_source(stats)
    stats.set_defaults(func=cmd_stats)

    simulate = sub.add_parser("simulate", help="run schemes over a trace")
    add_trace_source(simulate)
    simulate.add_argument(
        "--schemes",
        nargs="+",
        default=["dir1nb", "wti", "dir0b", "dragon"],
        metavar="SCHEME",
    )
    simulate.add_argument("--sharer-key", choices=("pid", "cpu"), default="pid")
    simulate.add_argument(
        "--geometry", default=None, metavar="LINESxASSOC[@dir:N]",
        help="finite cache geometry for every scheme (e.g. 1024x4); "
             "per-scheme '@' suffixes like dir0b@1024x4 take precedence",
    )
    simulate.set_defaults(func=cmd_simulate)

    artifact = sub.add_parser("artifact", help="regenerate a paper table/figure")
    artifact.add_argument("id", choices=_ARTIFACT_IDS + ("all",))
    artifact.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    artifact.set_defaults(func=cmd_artifact)

    report = sub.add_parser("report", help="write the full evaluation as Markdown")
    report.add_argument("output")
    report.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    report.set_defaults(func=cmd_report)

    verify = sub.add_parser(
        "verify",
        help="conformance gate: statespace model checking, seeded trace "
             "fuzzing, corpus replay, mutation testing",
    )
    verify.add_argument(
        "--schemes", nargs="+", default=list(_SCHEME_NAMES), metavar="SCHEME"
    )
    verify.add_argument("--caches", type=int, default=3)
    verify.add_argument(
        "--fuzz", type=int, default=0, metavar="N",
        help="run N seeded adversarial traces through the conformance "
             "harness (oracle + invariants + cross-protocol differentials)",
    )
    verify.add_argument(
        "--seed", type=int, default=0,
        help="fuzz campaign seed (equal seeds give byte-identical runs)",
    )
    verify.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for conformance cells (default 1 = serial)",
    )
    verify.add_argument(
        "--corpus", metavar="DIR",
        help="replay the golden reproducer corpus in DIR (all must pass)",
    )
    verify.add_argument(
        "--update-corpus", metavar="DIR",
        help="save minimized reproducers of new fuzz failures into DIR",
    )
    verify.add_argument(
        "--no-shrink", action="store_true",
        help="skip minimizing failing fuzz traces",
    )
    verify.add_argument(
        "--mutation", action="store_true",
        help="mutation-test the gate itself: every fault-injected "
             "protocol mutant must be detected (100%% kill rate), "
             "including finite-capacity eviction-logic saboteurs",
    )
    verify.add_argument(
        "--finite-geometry", metavar="LINESxASSOC", dest="finite_geometry",
        help="also run every fuzz cell under this finite cache geometry "
             "(engages the oracle's eviction audit)",
    )
    verify.set_defaults(func=cmd_verify)

    transitions = sub.add_parser(
        "transitions", help="print a protocol's derived transition table"
    )
    transitions.add_argument("scheme", choices=_SCHEME_NAMES)
    transitions.add_argument("--caches", type=int, default=3)
    transitions.set_defaults(func=cmd_transitions)

    run = sub.add_parser(
        "run", help="fault-tolerant sweep with retries and checkpoint/resume"
    )
    run.add_argument(
        "--workloads", nargs="+", choices=workloads, metavar="WORKLOAD",
        help="synthetic workloads to include as traces",
    )
    run.add_argument(
        "--trace-files", nargs="+", metavar="FILE",
        help="trace files to include (text or binary, auto-detected)",
    )
    run.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    run.add_argument(
        "--schemes", nargs="+",
        default=["dir1nb", "wti", "dir0b", "dragon"], metavar="SCHEME",
    )
    run.add_argument("--sharer-key", choices=("pid", "cpu"), default="pid")
    run.add_argument(
        "--retries", type=int, default=3,
        help="attempts per cell for transient failures (default 3)",
    )
    run.add_argument(
        "--backoff", type=float, default=0.05,
        help="base retry backoff in seconds (doubles per retry)",
    )
    run.add_argument(
        "--strict", action="store_true",
        help="abort the sweep on the first permanent cell failure",
    )
    run.add_argument(
        "--lenient", action="store_true",
        help="skip malformed text-trace lines (within the error budget)",
    )
    run.add_argument(
        "--checkpoint", metavar="DIR",
        help="snapshot completed cells and mid-trace state into DIR",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=10_000, metavar="RECORDS",
        help="records between mid-cell snapshots (default 10000)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="continue from the checkpoint in --checkpoint DIR",
    )
    run.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for the sweep (default 1 = serial)",
    )
    run.add_argument(
        "--batch", type=int, default=None, metavar="CELLS",
        help="cells per pool dispatch when --jobs > 1 "
        "(default: auto-sized to ~4 batches per worker)",
    )
    run.add_argument(
        "--result-cache", metavar="DIR",
        help="cache cell results in DIR, keyed by trace content + scheme + config",
    )
    run.add_argument(
        "--progress", action="store_true",
        help="per-cell timing/retry/cache lines and an engine counter summary",
    )
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser(
        "bench",
        help="measure throughput, track history, gate regressions",
    )
    bench.add_argument(
        "--length", type=int, default=60_000,
        help="records per synthetic trace (default 60000)",
    )
    bench.add_argument(
        "--schemes", nargs="+",
        default=["dir1nb", "wti", "dir0b", "dragon"], metavar="SCHEME",
    )
    bench.add_argument(
        "--jobs", nargs="+", type=int, default=[1, 2, 4], metavar="N",
        help="worker counts to sweep (default: 1 2 4)",
    )
    bench.add_argument(
        "--batch", type=int, default=None, metavar="CELLS",
        help="cells per pool dispatch (default: auto)",
    )
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--warmup", type=int, default=1)
    bench.add_argument(
        "--json", default="BENCH_throughput.json", metavar="FILE",
        help="headline report path (default: BENCH_throughput.json)",
    )
    bench.add_argument(
        "--history", default="BENCH_history.jsonl", metavar="FILE",
        help="append-only run history (default: BENCH_history.jsonl)",
    )
    bench.add_argument(
        "--threshold", type=float, default=0.10,
        help="regression gate: fail if a metric drops more than this "
        "fraction below its rolling baseline (default 0.10)",
    )
    bench.add_argument(
        "--no-regression-gate", action="store_true",
        help="measure and record without failing on regressions",
    )
    bench.add_argument(
        "--no-history", action="store_true",
        help="do not append this run to the history file",
    )
    bench.add_argument(
        "--gate-scaling", action="store_true",
        help="fail unless pooled jobs=4 throughput >= jobs=1",
    )
    bench.set_defaults(func=cmd_bench)

    serve = sub.add_parser(
        "serve", help="run the simulation service (HTTP/JSON job API)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="bind port (0 picks a free one)")
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent jobs (worker threads, default 2)",
    )
    serve.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="simulation processes per job (default 1 = in-thread)",
    )
    serve.add_argument(
        "--result-cache", metavar="DIR",
        help="content-addressed result cache shared by all jobs "
             "(defaults to STATE_DIR/cache when --state-dir is given, "
             "else to a private temp directory removed at shutdown)",
    )
    serve.add_argument(
        "--state-dir", metavar="DIR",
        help="persist jobs + checkpoints here; enables SIGTERM "
             "checkpoint shutdown and restart resume",
    )
    serve.add_argument(
        "--retries", type=int, default=3,
        help="attempts per cell for transient failures (default 3)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=None, metavar="SECONDS",
        help="bound on waiting for jobs at drain shutdown (default: none)",
    )
    serve.add_argument(
        "--fabric-db", metavar="FILE",
        help="durable fabric database: jobs survive crashes and owned "
             "cells run on the lease-based worker fleet",
    )
    serve.add_argument(
        "--fabric-workers", type=int, default=1, metavar="N",
        help="in-process fleet members when --fabric-db is set "
             "(0 = external 'repro work' processes only; default 1)",
    )
    serve.add_argument(
        "--lease", type=float, default=30.0, metavar="SECONDS",
        help="fabric lease duration per cell (default 30)",
    )
    serve.set_defaults(func=cmd_serve)

    work = sub.add_parser(
        "work", help="join a durable fleet: lease and simulate fabric cells"
    )
    work.add_argument("--db", required=True, metavar="FILE",
                      help="the shared fabric database")
    work.add_argument(
        "--cache", metavar="DIR",
        help="shared result cache (the fleet-wide dedup layer)",
    )
    work.add_argument(
        "--worker-id", default=None,
        help="fleet-unique name (default: generated from pid)",
    )
    work.add_argument(
        "--lease", type=float, default=30.0, metavar="SECONDS",
        help="lease duration per claimed cell (default 30)",
    )
    work.add_argument(
        "--poll", type=float, default=0.1, metavar="SECONDS",
        help="idle sleep between empty polls (default 0.1)",
    )
    work.add_argument(
        "--forever", action="store_true",
        help="keep polling after the queue drains (service-fleet mode)",
    )
    work.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="exit after N cells (default: run until drained/stopped)",
    )
    work.set_defaults(func=cmd_work)

    dlq = sub.add_parser(
        "dlq", help="list a fabric database's dead-letter queue"
    )
    dlq.add_argument("--db", required=True, metavar="FILE")
    dlq.add_argument("--json", action="store_true",
                     help="machine-readable listing")
    dlq.set_defaults(func=cmd_dlq)

    chaos = sub.add_parser(
        "chaos",
        help="crash-recovery harness: SIGKILL one of N workers mid-cell, "
             "assert bit-identical results and exactly one reassignment",
    )
    chaos.add_argument(
        "--db", default=None, metavar="FILE",
        help="fabric database to use (default: a fresh temporary one)",
    )
    chaos.add_argument("--workers", type=int, default=3, metavar="N")
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="seeds the victim/kill-point choice (equal seeds, same kill)",
    )
    chaos.add_argument(
        "--no-kill", action="store_true",
        help="control run: same fleet, no victim",
    )
    chaos.add_argument(
        "--lease", type=float, default=3.0, metavar="SECONDS",
        help="fleet lease duration (short, so the orphaned lease expires "
             "quickly; default 3)",
    )
    chaos.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="overall wall-clock bound (default 300)",
    )
    chaos.add_argument(
        "--spec-file", metavar="FILE",
        help="JSON job spec for the sweep (default: a built-in 6-scheme grid)",
    )
    chaos.set_defaults(func=cmd_chaos)

    def add_service_client_args(command) -> None:
        command.add_argument(
            "--server", default="http://127.0.0.1:8642",
            help="service base URL (default http://127.0.0.1:8642)",
        )
        command.add_argument("--timeout", type=float, default=30.0)

    submit = sub.add_parser("submit", help="submit a sweep job to a service")
    add_service_client_args(submit)
    submit.add_argument(
        "--spec-file", metavar="FILE",
        help="JSON job spec to submit verbatim (overrides the options below)",
    )
    submit.add_argument(
        "--schemes", nargs="+",
        default=["dir1nb", "wti", "dir0b", "dragon"], metavar="SCHEME",
    )
    submit.add_argument(
        "--workloads", nargs="+", default=["pops"], metavar="WORKLOAD",
    )
    submit.add_argument(
        "--trace-files", nargs="+", metavar="FILE",
        help="server-side trace file paths to include",
    )
    submit.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--sharer-key", choices=("pid", "cpu"), default="pid")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--dedup", action="store_true",
        help="return an existing identical queued/running job instead "
             "of enqueueing a copy",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal; print the final status",
    )
    submit.add_argument(
        "--stream", action="store_true",
        help="print the NDJSON event stream while the job runs",
    )
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser(
        "status", help="query a running service (stats, or one job)"
    )
    add_service_client_args(status)
    status.add_argument("job_id", nargs="?", default=None)
    status.set_defaults(func=cmd_status)

    return parser


#: Exit codes per error category (see the module docstring).
EXIT_TRACE_FORMAT = 3
EXIT_PROTOCOL = 4
EXIT_CONFIGURATION = 5
EXIT_SERVICE = 6
EXIT_CONFORMANCE = 7
EXIT_REPRO_ERROR = 2


def _report_failure(category: str, exc: ReproError, code: int) -> int:
    print(f"error [{category}]: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TraceFormatError as exc:
        return _report_failure("trace-format", exc, EXIT_TRACE_FORMAT)
    except InvariantViolation as exc:
        return _report_failure("invariant", exc, EXIT_PROTOCOL)
    except ProtocolError as exc:
        return _report_failure("protocol", exc, EXIT_PROTOCOL)
    except ConfigurationError as exc:
        return _report_failure("configuration", exc, EXIT_CONFIGURATION)
    except ServiceError as exc:
        return _report_failure("service", exc, EXIT_SERVICE)
    except ConformanceError as exc:
        return _report_failure("conformance", exc, EXIT_CONFORMANCE)
    except ReproError as exc:
        return _report_failure("error", exc, EXIT_REPRO_ERROR)
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. head).
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
