"""``repro bench``: the repeatable performance harness.

``benchmarks/bench_throughput.py`` measures the hot paths under
pytest-benchmark; this module is the same measurement as a first-class
CLI verb with a durable history, so performance is tracked — not just
observed — across commits:

* **warmup + repeats** — every timing warms the code path first (JIT
  caches, warm worker pools, memoized data views), then keeps the best
  of N repeats, the standard defense against scheduler noise;
* **history** — each run appends one timestamped record to
  ``BENCH_history.jsonl`` (append-only JSON Lines, one run per line)
  and refreshes ``BENCH_throughput.json``, which nothing else writes;
* **regression gate** — headline metrics are compared against a
  rolling baseline (the median of the last few history records); any
  metric more than ``threshold`` below its baseline fails the run,
  which is what CI hooks into;
* **cold start** — median wall time of fresh ``python -c "import
  repro"`` and ``python -m repro --help`` processes, and how many
  ``repro`` modules each loads;
* **scaling gate** — optionally require pooled ``--jobs 4`` throughput
  to meet ``--jobs 1``, guarding the parallel dispatch path against
  regressions that serial numbers cannot see.  The gate is core-aware:
  on a single-core box (where workers can only time-slice) it reports
  itself skipped rather than failing on physics.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from statistics import median
from typing import Any, Callable, Sequence

DEFAULT_SCHEMES = ("dir1nb", "wti", "dir0b", "dragon")
DEFAULT_JOBS = (1, 2, 4)
DEFAULT_LENGTH = 60_000
DEFAULT_REPEATS = 3
DEFAULT_WARMUP = 1
DEFAULT_THRESHOLD = 0.10
DEFAULT_WINDOW = 5
DEFAULT_GEOMETRY = "1024x4"
DEFAULT_STARTUP_RUNS = 10

#: Cold-start probes: the program of each measured process
#: (``cli_help`` is ``python -m repro --help``).
STARTUP_PROBES = {
    "python": "pass",
    "import_repro": "import repro",
    "cli_help": (
        "import runpy\nsys.argv = ['repro', '--help']\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)"
    ),
}

#: Prefix of every probe: print the loaded ``repro`` module count at exit.
_COUNT_AT_EXIT = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(sum(name.split('.')[0] == 'repro'"
    " for name in sys.modules), file=sys.stderr))\n"
)

#: Headline metrics where lower is better (all others are rates).
LOWER_IS_BETTER = ("_s", ".modules")

#: Ceiling on a scheme's finite-cache slowdown vs its infinite-cache
#: run — the tables' LRU layer does strictly more work (LRU
#: maintenance, victim write-backs) but must stay on the same fast path.
FINITE_SLOWDOWN_LIMIT = 2.0

#: Record-path throughput of the seed revision (pre-fast-path) on the
#: reference container — the long-term "how far have we come" anchor.
SEED_RECORD_REFS_PER_SEC = {"dir0b": 443_121, "dragon": 347_795}

#: Pooled jobs=4 throughput before the shared-memory/batched dispatch
#: rework (pickle-per-cell dispatch); the parallel path's anchor.
SEED_POOLED_REFS_PER_SEC = 765_917


def _best_seconds(fn: Callable[[], Any], repeats: int, warmup: int) -> float:
    """Best wall-clock of *repeats* calls after *warmup* unmeasured ones."""
    for _ in range(max(0, warmup)):
        fn()
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def _generic_loop(simulator: Any, columnar: Any) -> Callable[..., Any]:
    """A runner for *columnar* on the generic columnar loop: the baseline
    the transition tables are checked and timed against."""
    from repro.core.result import SimulationResult
    from repro.core.simulator import SimulationContext
    from repro.protocols.registry import make_protocol

    sharers = columnar.pids if simulator.sharer_key == "pid" else columnar.cpus

    def run(scheme: str, **options: Any) -> Any:
        protocol = make_protocol(scheme, max(1, len(sharers)), **options)
        result = SimulationResult(scheme=protocol.name, trace_name=columnar.name)
        return simulator._run_columnar(columnar, protocol, result, SimulationContext())

    return run


def measure_schemes(
    trace: Any,
    schemes: Sequence[str],
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
) -> dict[str, dict[str, Any]]:
    """Serial transition-table vs generic-loop throughput per scheme.

    ``Simulator.run`` puts these stock protocols on the tables; the
    generic columnar loop is timed on the same columns, after asserting
    both give the same result.
    """
    from repro.core.simulator import Simulator
    from repro.trace.columnar import ColumnarTrace

    simulator = Simulator()
    columnar = ColumnarTrace.from_trace(trace)
    columnar.data_view(simulator.sharer_key)
    generic_loop = _generic_loop(simulator, columnar)
    refs = len(trace)
    report: dict[str, dict[str, Any]] = {}
    for scheme in schemes:
        assert simulator.run(columnar, scheme) == generic_loop(scheme)
        generic_s = _best_seconds(lambda s=scheme: generic_loop(s), repeats, warmup)
        table_s = _best_seconds(
            lambda s=scheme: simulator.run(columnar, s), repeats, warmup
        )
        entry: dict[str, Any] = {
            "generic_refs_per_sec": round(refs / generic_s),
            "table_refs_per_sec": round(refs / table_s),
            "speedup_table_vs_generic": round(generic_s / table_s, 2),
        }
        seed = SEED_RECORD_REFS_PER_SEC.get(scheme)
        if seed is not None:
            entry["speedup_vs_seed_record"] = round((refs / table_s) / seed, 2)
        report[scheme] = entry
    return report


def measure_finite(
    trace: Any,
    schemes: Sequence[str],
    geometry: str = DEFAULT_GEOMETRY,
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
) -> dict[str, Any]:
    """Transition-table throughput on finite vs infinite caches.

    Runs each scheme's transition table with its LRU layer engaged
    (LRU sets, replacement write-backs) against the same trace its
    infinite-cache run measures, after asserting the finite result
    matches the generic columnar loop's bit for bit.
    ``slowdown_vs_infinite`` is the headline: finite runs are expected
    to stay within 2x of infinite ones (they do strictly more work per
    reference).
    """
    from repro.core.simulator import Simulator
    from repro.trace.columnar import ColumnarTrace

    simulator = Simulator()
    columnar = ColumnarTrace.from_trace(trace)
    columnar.data_view(simulator.sharer_key)
    generic_loop = _generic_loop(simulator, columnar)
    refs = len(trace)
    entries: dict[str, dict[str, Any]] = {}
    for scheme in schemes:
        assert simulator.run(columnar, scheme, geometry=geometry) == generic_loop(
            scheme, geometry=geometry
        )
        finite_s = _best_seconds(
            lambda s=scheme: simulator.run(columnar, s, geometry=geometry),
            repeats,
            warmup,
        )
        infinite_s = _best_seconds(
            lambda s=scheme: simulator.run(columnar, s), repeats, warmup
        )
        entries[scheme] = {
            "finite_refs_per_sec": round(refs / finite_s),
            "infinite_refs_per_sec": round(refs / infinite_s),
            "slowdown_vs_infinite": round(finite_s / infinite_s, 2),
        }
    return {"geometry": geometry, "schemes": entries}


def measure_streaming(
    trace: Any,
    schemes: Sequence[str],
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
) -> dict[str, Any]:
    """Chunk-streamed ``.ctrc`` throughput vs the in-memory paths.

    Packs the trace into a temporary chunked store (several chunks, so
    chunk-boundary handling is on the measured path), verifies the
    streamed result is identical to the columnar one, then times the
    bounded-memory simulation.  ``peak_rss_mb`` is the process-lifetime
    high-water mark — advisory context here; the enforced RSS ceiling
    lives in ``tools/bigtrace_smoke.py`` where the subprocess starts
    clean.
    """
    import resource
    import tempfile

    from repro.core.simulator import Simulator
    from repro.store import ChunkedTrace, pack_trace

    simulator = Simulator()
    refs = len(trace)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.ctrc"
        start = time.perf_counter()
        meta = pack_trace(trace, path, chunk_records=max(1024, refs // 8))
        pack_s = time.perf_counter() - start
        stored = sum(chunk["length"] for chunk in meta["chunks"])
        with ChunkedTrace(path) as chunked:
            entries: dict[str, dict[str, Any]] = {}
            for scheme in schemes:
                assert simulator.run(chunked, scheme) == simulator.run(trace, scheme)
                chunked_s = _best_seconds(
                    lambda s=scheme: simulator.run(chunked, s), repeats, warmup
                )
                entries[scheme] = {
                    "chunked_refs_per_sec": round(refs / chunked_s),
                }
    return {
        "chunks": len(meta["chunks"]),
        "stored_bytes": stored,
        "compression": round(refs * 26 / stored, 2) if stored else None,
        "pack_refs_per_sec": round(refs / pack_s),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "schemes": entries,
    }


def measure_generation(
    length: int = DEFAULT_LENGTH,
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
) -> dict[str, Any]:
    """Synthetic trace generation throughput for each paper trace.

    ``refs_per_sec`` times ``make_trace``, which emits packed columns
    and builds no records; ``stream_refs_per_sec`` drains
    ``stream_trace``, which builds every record as it streams;
    ``fingerprint_refs_per_sec`` times ``trace_fingerprint`` (the
    result-cache key's content hash) of the ``make_trace`` output.
    """
    from collections import deque

    from repro.runner.cache import trace_fingerprint
    from repro.workloads.registry import make_trace, stream_trace

    entries: dict[str, dict[str, Any]] = {}
    for name in ("pops", "thor", "pero"):
        build_s = _best_seconds(
            lambda n=name: make_trace(n, length=length), repeats, warmup
        )
        stream_s = _best_seconds(
            lambda n=name: deque(stream_trace(n, length=length), maxlen=0),
            repeats,
            warmup,
        )
        trace = make_trace(name, length=length)
        fingerprint_s = _best_seconds(
            lambda t=trace: trace_fingerprint(t), repeats, warmup
        )
        entries[name] = {
            "refs_per_sec": round(length / build_s),
            "stream_refs_per_sec": round(length / stream_s),
            "fingerprint_refs_per_sec": round(len(trace) / fingerprint_s),
        }
    return {"length": length, "workloads": entries}


def measure_generic(
    trace: Any,
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
) -> dict[str, dict[str, Any]]:
    """Serial ``Simulator.run`` throughput for every registered protocol.

    ``path`` says whether the transition tables or the generic columnar
    loop ran it, so a protocol far below its peers stands out.
    """
    from repro.core.simulator import Simulator
    from repro.protocols.tables import has_table
    from repro.protocols.registry import available_protocols, make_protocol
    from repro.trace.columnar import ColumnarTrace

    simulator = Simulator()
    columnar = ColumnarTrace.from_trace(trace)
    columnar.data_view(simulator.sharer_key)
    entries: dict[str, dict[str, Any]] = {}
    for scheme in available_protocols():
        seconds = _best_seconds(
            lambda s=scheme: simulator.run(columnar, s), repeats, warmup
        )
        entries[scheme] = {
            "refs_per_sec": round(len(columnar) / seconds),
            "path": "table" if has_table(make_protocol(scheme, 1)) else "generic",
        }
    return entries


def measure_startup(runs: int = DEFAULT_STARTUP_RUNS) -> dict[str, Any]:
    """Cold start: median wall time of fresh interpreter processes.

    Each probe in :data:`STARTUP_PROBES` runs *runs* times, interleaved
    so drift hits every probe alike, and reports how many ``repro``
    modules it loaded; ``python`` is the bare interpreter start the
    others include.
    """
    src = str(Path(__file__).resolve().parents[2])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, path] if path else [src]))
    seconds: dict[str, list[float]] = {name: [] for name in STARTUP_PROBES}
    modules: dict[str, int] = {}
    for _ in range(max(1, runs)):
        for name, code in STARTUP_PROBES.items():
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", _COUNT_AT_EXIT + code],
                env=env, check=True, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            seconds[name].append(time.perf_counter() - start)
            modules[name] = int(done.stderr.split()[-1])
    return {
        "runs": max(1, runs),
        "probes": {
            name: {"wall_s": round(median(seconds[name]), 4), "modules": modules[name]}
            for name in STARTUP_PROBES
        },
    }


def measure_parallel(
    traces: Sequence[Any],
    schemes: Sequence[str],
    jobs_list: Sequence[int] = DEFAULT_JOBS,
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
    batch: int | None = None,
) -> dict[str, Any]:
    """Whole-sweep throughput by worker count (warm pools, shm dispatch)."""
    from repro.engine.core import Engine
    from repro.engine.plan import ExecutionPlan
    from repro.trace.columnar import ColumnarTrace

    columnar = [ColumnarTrace.from_trace(trace) for trace in traces]
    cells = len(schemes) * len(columnar)
    refs = sum(len(trace) for trace in columnar) * len(schemes)

    reference: dict[int, Any] = {}

    def sweep(jobs: int) -> None:
        outcome = Engine(jobs=jobs, batch=batch).run(
            ExecutionPlan(traces=columnar, schemes=list(schemes))
        )
        if outcome.all_failures():
            raise RuntimeError(f"bench sweep failed at jobs={jobs}")
        reference[jobs] = outcome.results

    seconds: dict[str, float] = {}
    for jobs in jobs_list:
        seconds[str(jobs)] = round(
            _best_seconds(lambda j=jobs: sweep(j), repeats, warmup), 4
        )
    baseline = reference[jobs_list[0]]
    for jobs in jobs_list[1:]:
        if reference[jobs] != baseline:
            raise RuntimeError("parallel sweep results diverged across job counts")
    return {
        "cells": cells,
        "refs_total": refs,
        "seconds_by_jobs": seconds,
        "refs_per_sec_by_jobs": {
            jobs: round(refs / s) for jobs, s in seconds.items()
        },
    }


def build_report(
    length: int = DEFAULT_LENGTH,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    jobs_list: Sequence[int] = DEFAULT_JOBS,
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
    batch: int | None = None,
    parallel_schemes: Sequence[str] | None = None,
    full_roster: bool = True,
) -> dict[str, Any]:
    """Measure everything; returns the BENCH_throughput.json payload.

    The headline ``parallel_sweep`` uses the same composition as the
    pooled seed anchor (the paper's four schemes over pops + thor) so
    ``speedup_vs_seed_pooled`` is apples-to-apples.  A second
    ``parallel_sweep_full_roster`` section sweeps **every** registered
    protocol — the realistic paper sweep — as context, not as a gated
    metric.
    """
    from repro.protocols.registry import available_protocols
    from repro.workloads.registry import make_trace

    if parallel_schemes is None:
        parallel_schemes = DEFAULT_SCHEMES
    pops = make_trace("pops", length=length)
    thor = make_trace("thor", length=length)
    sweep = measure_parallel(
        [pops, thor], parallel_schemes, jobs_list, repeats, warmup, batch
    )
    high = str(max(jobs_list))
    if high in sweep["refs_per_sec_by_jobs"]:
        sweep["speedup_vs_seed_pooled"] = round(
            sweep["refs_per_sec_by_jobs"][high] / SEED_POOLED_REFS_PER_SEC, 2
        )
    report = {
        "benchmark": "bench_throughput",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_cores": usable_cores(),
        "trace": {"workload": "pops", "length": length},
        "seed_record_refs_per_sec": dict(SEED_RECORD_REFS_PER_SEC),
        "seed_pooled_refs_per_sec": SEED_POOLED_REFS_PER_SEC,
        "startup": measure_startup(),
        "schemes": measure_schemes(pops, schemes, repeats, warmup),
        "generic": measure_generic(pops, repeats, warmup),
        "finite": measure_finite(pops, schemes, repeats=repeats, warmup=warmup),
        "streaming": measure_streaming(pops, schemes, repeats, warmup),
        "generation": measure_generation(length, repeats, warmup),
        "parallel_sweep": sweep,
    }
    if full_roster:
        report["parallel_sweep_full_roster"] = measure_parallel(
            [pops, thor],
            available_protocols(),
            jobs_list,
            repeats,
            warmup,
            batch,
        )
    return report


# ----------------------------------------------------------------------
# History + regression gate
# ----------------------------------------------------------------------


def headline_metrics(report: dict[str, Any]) -> dict[str, float]:
    """The flat metric map tracked across runs.

    Higher is better except for names ending in :data:`LOWER_IS_BETTER`.
    """
    metrics: dict[str, float] = {}
    for name, entry in report.get("startup", {}).get("probes", {}).items():
        metrics[f"startup.{name}.wall_s"] = entry["wall_s"]
        metrics[f"startup.{name}.modules"] = entry["modules"]
    for scheme, entry in report.get("generic", {}).items():
        metrics[f"generic.{scheme}.refs_per_sec"] = entry["refs_per_sec"]
    for scheme, entry in report.get("schemes", {}).items():
        metrics[f"columnar.{scheme}.refs_per_sec"] = entry["table_refs_per_sec"]
    for scheme, entry in report.get("finite", {}).get("schemes", {}).items():
        metrics[f"finite.{scheme}.refs_per_sec"] = entry["finite_refs_per_sec"]
    for scheme, entry in report.get("streaming", {}).get("schemes", {}).items():
        metrics[f"streaming.{scheme}.refs_per_sec"] = entry["chunked_refs_per_sec"]
    for name, entry in report.get("generation", {}).get("workloads", {}).items():
        metrics[f"generation.{name}.refs_per_sec"] = entry["refs_per_sec"]
        metrics[f"generation.{name}.stream_refs_per_sec"] = entry["stream_refs_per_sec"]
        if "fingerprint_refs_per_sec" in entry:  # absent from older reports
            metrics[f"generation.{name}.fingerprint_refs_per_sec"] = entry[
                "fingerprint_refs_per_sec"
            ]
    for jobs, value in (
        report.get("parallel_sweep", {}).get("refs_per_sec_by_jobs", {}).items()
    ):
        metrics[f"parallel.jobs{jobs}.refs_per_sec"] = value
    return metrics


def load_history(path: Path) -> list[dict[str, Any]]:
    """All parseable history records, oldest first (bad lines skipped)."""
    records: list[dict[str, Any]] = []
    if not path.exists():
        return records
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and isinstance(record.get("metrics"), dict):
            records.append(record)
    return records


def append_history(report: dict[str, Any], path: Path) -> dict[str, Any]:
    """Append this run's record to the JSONL history; returns the record."""
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": report.get("python"),
        "platform": report.get("platform"),
        "cpu_cores": report.get("cpu_cores"),
        "trace": report.get("trace"),
        "metrics": headline_metrics(report),
    }
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def rolling_baseline(
    history: Sequence[dict[str, Any]], metric: str, window: int = DEFAULT_WINDOW
) -> float | None:
    """Median of *metric* over the last *window* history records."""
    values = [
        record["metrics"][metric]
        for record in history
        if metric in record.get("metrics", {})
    ][-window:]
    if not values:
        return None
    return median(values)


def find_regressions(
    report: dict[str, Any],
    history: Sequence[dict[str, Any]],
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
) -> list[str]:
    """Metrics more than *threshold* worse than their rolling baseline.

    Comparable records only: history entries measured on a different
    trace length are skipped (refs/s scales with cell size, so mixing
    smoke and full runs would poison the baseline).  A metric with no
    history yet has no baseline and cannot regress.
    """
    trace = report.get("trace")
    comparable = [record for record in history if record.get("trace") == trace]
    regressions: list[str] = []
    for metric, value in headline_metrics(report).items():
        baseline = rolling_baseline(comparable, metric, window)
        if baseline is None or baseline <= 0:
            continue
        if metric.endswith(LOWER_IS_BETTER):
            if value > baseline * (1.0 + threshold):
                regressions.append(
                    f"{metric}: {value:,.4g} is "
                    f"{(value / baseline - 1.0) * 100.0:.1f}% above the rolling "
                    f"baseline {baseline:,.4g}"
                )
        elif value < baseline * (1.0 - threshold):
            regressions.append(
                f"{metric}: {value:,.0f} refs/s is "
                f"{(1.0 - value / baseline) * 100.0:.1f}% below the rolling "
                f"baseline {baseline:,.0f}"
            )
    return regressions


def finite_kernel_violations(
    report: dict[str, Any], limit: float = FINITE_SLOWDOWN_LIMIT
) -> list[str]:
    """Schemes whose finite-cache run is more than *limit*x slower than
    their infinite-cache run (empty when the finite fast path holds)."""
    violations: list[str] = []
    finite = report.get("finite", {})
    for scheme, entry in finite.get("schemes", {}).items():
        slowdown = entry.get("slowdown_vs_infinite")
        if slowdown is not None and slowdown > limit:
            violations.append(
                f"finite tables for {scheme} at {finite.get('geometry')} are "
                f"{slowdown:.2f}x slower than infinite ones "
                f"(limit {limit:.1f}x)"
            )
    return violations


def usable_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def scaling_violation(
    report: dict[str, Any], low: int = 1, high: int = 4
) -> str | None:
    """Why the scaling gate fails, or None if jobs=high >= jobs=low.

    The gate only binds where parallel speedup is physically possible:
    on a box with fewer than two usable cores, workers time-slice one
    CPU and *any* pool overhead makes jobs=high lose — the seed
    baseline showed the same inversion — so the gate reports itself
    skipped instead of failing on hardware that cannot scale.
    """
    cores = report.get("cpu_cores") or usable_cores()
    if cores < 2:
        return None
    by_jobs = report.get("parallel_sweep", {}).get("refs_per_sec_by_jobs", {})
    low_value = by_jobs.get(str(low))
    high_value = by_jobs.get(str(high))
    if low_value is None or high_value is None:
        return f"scaling gate needs jobs={low} and jobs={high} measurements"
    if high_value < low_value:
        return (
            f"parallel dispatch does not scale: jobs={high} ran "
            f"{high_value:,} refs/s < jobs={low} at {low_value:,} refs/s"
        )
    return None
