"""Engineering benchmarks: simulator and generator throughput.

Not paper artifacts -- these measure the reproduction itself so
regressions in the hot paths (protocol state machines, trace
generation) are visible.

Beyond the pytest-benchmark timings, the columnar-fast-path and
parallel-sweep tests time themselves with ``time.perf_counter`` and
write ``BENCH_throughput.json`` at the repo root (refs/sec per scheme,
speedups vs the record path and vs the recorded seed baseline), so the
headline numbers are produced even under ``--benchmark-disable`` -- the
mode the CI smoke job runs in.
"""

import json
import platform
import time
from pathlib import Path

import pytest

from repro.core.simulator import Simulator
from repro.runner.resilient import ResilientExperiment
from repro.trace.columnar import ColumnarTrace
from repro.workloads.base import SyntheticWorkload
from repro.workloads.registry import workload_config

THROUGHPUT_LENGTH = 20_000
FAST_PATH_LENGTH = 60_000
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: Record-path throughput of the seed revision (pre-fast-path, commit
#: cc36f3a) on the reference container, 60k-record pops trace.  The
#: columnar acceptance bar is >= 2x these; absolute numbers are only
#: comparable on similar hardware, so the JSON records both this
#: baseline and the record path measured in the same run.
SEED_RECORD_REFS_PER_SEC = {"dir0b": 443_121, "dragon": 347_795}


@pytest.fixture(scope="module")
def small_trace():
    return SyntheticWorkload(workload_config("pops", length=THROUGHPUT_LENGTH)).build()


@pytest.fixture(scope="module")
def fast_path_trace():
    return SyntheticWorkload(workload_config("pops", length=FAST_PATH_LENGTH)).build()


@pytest.fixture(scope="module")
def bench_report():
    """Collects headline numbers; written to BENCH_throughput.json at teardown."""
    report = {
        "benchmark": "bench_throughput",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "trace": {"workload": "pops", "length": FAST_PATH_LENGTH},
        "seed_record_refs_per_sec": dict(SEED_RECORD_REFS_PER_SEC),
        "schemes": {},
        "parallel_sweep": {},
    }
    yield report
    BENCH_JSON.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


def _best_seconds(fn, repeats=3):
    """Wall-clock of the fastest of *repeats* calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_workload_generation_throughput(benchmark):
    config = workload_config("pops", length=THROUGHPUT_LENGTH)
    trace = benchmark(lambda: SyntheticWorkload(config).build())
    assert len(trace) == THROUGHPUT_LENGTH


@pytest.mark.parametrize(
    "scheme", ["dir1nb", "wti", "dir0b", "dragon", "dirnnb", "coarse-vector"]
)
def test_simulation_throughput(benchmark, small_trace, scheme):
    simulator = Simulator()
    result = benchmark(simulator.run, small_trace, scheme)
    assert result.total_refs == THROUGHPUT_LENGTH
    benchmark.extra_info["refs_per_run"] = THROUGHPUT_LENGTH


def test_simulation_with_invariant_checking_overhead(benchmark, small_trace):
    simulator = Simulator(check_invariants=100)
    result = benchmark(simulator.run, small_trace, "dir0b")
    assert result.total_refs == THROUGHPUT_LENGTH


@pytest.mark.parametrize("scheme", ["dir1nb", "wti", "dir0b", "dragon"])
def test_columnar_simulation_throughput(benchmark, small_trace, scheme):
    simulator = Simulator()
    columnar = ColumnarTrace.from_trace(small_trace)
    result = benchmark(simulator.run, columnar, scheme)
    assert result.total_refs == THROUGHPUT_LENGTH
    benchmark.extra_info["refs_per_run"] = THROUGHPUT_LENGTH


# ----------------------------------------------------------------------
# Columnar fast path vs record path (self-timed; feeds the JSON report)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["dir1nb", "wti", "dir0b", "dragon"])
def test_columnar_fast_path_speedup(bench_report, fast_path_trace, scheme):
    simulator = Simulator()
    columnar = ColumnarTrace.from_trace(fast_path_trace)
    columnar.data_view(simulator.sharer_key)  # steady state, not first-touch

    # A bare record list is the one input Simulator.run keeps on the
    # record loop; a Trace would take the columnar path too.
    records = columnar.to_records()

    def record_loop():
        return simulator.run(
            records, scheme, num_caches=len(columnar.pids), trace_name=columnar.name
        )

    record_result = record_loop()
    columnar_result = simulator.run(columnar, scheme)
    assert columnar_result == record_result  # never benchmark a wrong answer

    record_seconds = _best_seconds(record_loop)
    columnar_seconds = _best_seconds(lambda: simulator.run(columnar, scheme))
    refs = len(fast_path_trace)
    entry = {
        "record_refs_per_sec": round(refs / record_seconds),
        "columnar_refs_per_sec": round(refs / columnar_seconds),
        "speedup_columnar_vs_record": round(record_seconds / columnar_seconds, 2),
    }
    seed = SEED_RECORD_REFS_PER_SEC.get(scheme)
    if seed is not None:
        entry["speedup_vs_seed_record"] = round(
            (refs / columnar_seconds) / seed, 2
        )
    bench_report["schemes"][scheme] = entry

    # The fast path must actually be fast; the margin is deliberately
    # loose so a noisy CI box never flakes (measured: 2.3x-2.6x).
    assert record_seconds / columnar_seconds >= 1.2


# ----------------------------------------------------------------------
# Parallel sweep (self-timed; feeds the JSON report)
# ----------------------------------------------------------------------

def test_parallel_sweep_throughput(bench_report, small_trace):
    thor = SyntheticWorkload(workload_config("thor", length=THROUGHPUT_LENGTH)).build()
    traces = [ColumnarTrace.from_trace(small_trace), ColumnarTrace.from_trace(thor)]
    schemes = ["dir1nb", "wti", "dir0b", "dragon"]

    timings = {}
    outcomes = {}
    for jobs in (1, 2, 4):
        experiment = ResilientExperiment(traces=traces, schemes=schemes, jobs=jobs)
        start = time.perf_counter()
        outcomes[jobs] = experiment.run()
        timings[str(jobs)] = round(time.perf_counter() - start, 4)
        assert not outcomes[jobs].all_failures()
    assert outcomes[2].results == outcomes[1].results == outcomes[4].results

    cells = len(schemes) * len(traces)
    refs = cells * THROUGHPUT_LENGTH
    bench_report["parallel_sweep"] = {
        "cells": cells,
        "refs_total": refs,
        "seconds_by_jobs": timings,
        "refs_per_sec_by_jobs": {
            jobs: round(refs / seconds) for jobs, seconds in timings.items()
        },
    }
