"""Engineering benchmarks: simulator and generator throughput.

Not paper artifacts -- these measure the reproduction itself so
regressions in the hot paths (protocol state machines, trace
generation) are visible.

Beyond the pytest-benchmark timings, the columnar-fast-path and
parallel-sweep tests time themselves through ``repro.report.bench`` (the
measurements behind ``repro bench``), so their assertions hold even
under ``--benchmark-disable`` -- the mode the CI smoke job runs in.
They write nothing: ``repro bench`` alone refreshes
``BENCH_throughput.json``.
"""

import pytest

from repro.core.simulator import Simulator
from repro.report.bench import measure_parallel, measure_schemes
from repro.trace.columnar import ColumnarTrace
from repro.workloads.base import SyntheticWorkload
from repro.workloads.registry import workload_config

THROUGHPUT_LENGTH = 20_000
FAST_PATH_LENGTH = 60_000


@pytest.fixture(scope="module")
def small_trace():
    return SyntheticWorkload(workload_config("pops", length=THROUGHPUT_LENGTH)).build()


@pytest.fixture(scope="module")
def fast_path_trace():
    return SyntheticWorkload(workload_config("pops", length=FAST_PATH_LENGTH)).build()


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
# Transition tables vs the generic columnar loop (self-timed)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["dir1nb", "wti", "dir0b", "dragon"])
def test_columnar_fast_path_speedup(fast_path_trace, scheme):
    # measure_schemes asserts the table result equals the generic
    # loop's before timing either: never benchmark a wrong answer.
    entry = measure_schemes(fast_path_trace, [scheme])[scheme]

    # The fast path must actually be fast; the margin is deliberately
    # loose so a noisy CI box never flakes.
    assert entry["speedup_table_vs_generic"] >= 1.2


# ----------------------------------------------------------------------
# Parallel sweep (self-timed)
# ----------------------------------------------------------------------

def test_parallel_sweep_throughput(small_trace):
    thor = SyntheticWorkload(workload_config("thor", length=THROUGHPUT_LENGTH)).build()
    schemes = ["dir1nb", "wti", "dir0b", "dragon"]
    # Raises if any job count fails a cell or its results differ from
    # the serial (jobs=1) sweep's.
    report = measure_parallel(
        [small_trace, thor], schemes, jobs_list=(1, 2, 4), repeats=1, warmup=0
    )
    assert report["cells"] == len(schemes) * 2
    assert report["refs_total"] == report["cells"] * THROUGHPUT_LENGTH
    assert set(report["seconds_by_jobs"]) == {"1", "2", "4"}
