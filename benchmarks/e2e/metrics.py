"""Metric definitions and summary statistics for the end-to-end benchmark.

These tables are the one definition of every metric the harness
reports.  ``BENCHMARK.json`` at the repository root lists the gated
end-to-end metrics (``GATED``) under ``end_to_end`` and everything in
``PER_LAYER`` under ``per_layer``, with the same units, directions and
bounds; ``test_smoke.py`` holds the two in agreement.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple, Sequence

#: The full protocol roster, fixed here so the sweep (and the metric
#: names derived from it) does not change when a protocol is registered.
ROSTER = (
    "adaptive", "berkeley", "coarse-vector", "dir0b", "dir1nb", "dirib",
    "dirinb", "dirnnb", "dragon", "illinois", "write-once", "wti", "yenfu",
)

#: The paper's four evaluated schemes, which also have state-table kernels.
PAPER_SCHEMES = ("dir1nb", "wti", "dir0b", "dragon")

#: The finite geometry of the chunked sweep (``-256x2`` in metric names).
FINITE_GEOMETRY = "256x2"


class Metric(NamedTuple):
    """An end-to-end metric; a run's value is the median of its samples.

    ``bound`` is the share of the baseline's value by which the metric
    may worsen before ``compare.py`` calls it regressed.  A ``gated``
    metric is listed under ``end_to_end`` in ``BENCHMARK.json``: every
    workload reports it, and its median held the bound between two sets
    of runs of one commit taken minutes apart.  The others are listed
    with the per-layer metrics (see README.md for the measurements).
    """

    unit: str
    better: str
    bound: float
    gated: bool = False


E2E = {
    # BENCHMARK.json must gate set-up time, with the largest bound.
    "setup_s": Metric("s", "lower", 0.25, gated=True),
    "wall_s": Metric("s", "lower", 0.10),
    "warm_wall_s": Metric("s", "lower", 0.10),
    "refs_per_s": Metric("1/s", "higher", 0.10),
    "gen_refs_per_s": Metric("1/s", "higher", 0.10),
    "peak_rss_mb": Metric("MB", "lower", 0.10, gated=True),
    "latency_p50_s": Metric("s", "lower", 0.10),
    "latency_p90_s": Metric("s", "lower", 0.10),
    "first_cell_p50_s": Metric("s", "lower", 0.10),
    "jobs_per_s": Metric("1/s", "higher", 0.10),
    "repeat_latency_p50_s": Metric("s", "lower", 0.10),
    "failed_share": Metric("share", "lower", 0.0),
}

#: The end-to-end metrics ``BENCHMARK.json`` gates regressions on.
GATED = tuple(name for name, metric in E2E.items() if metric.gated)


def _per_layer() -> dict[str, tuple[str, str]]:
    rate = ("1/s", "higher")
    seconds = ("s", "lower")
    share_low = ("share", "lower")
    metrics: dict[str, tuple[str, str]] = {
        name: (metric.unit, metric.better)
        for name, metric in E2E.items()
        if not metric.gated
    }
    metrics.update({
        "workloads.gen_s": seconds,
        "workloads.stream_refs_per_s": rate,
        "trace.fingerprint_refs_per_s": rate,
        "trace.columnarize_refs_per_s": rate,
        "store.encode_s": seconds,
        "store.decode_refs_per_s": rate,
        "store.bytes_per_ref": ("B/ref", "lower"),
        "runner.cache_put_s": seconds,
        "runner.cache_get_s": seconds,
        "runner.cache_hit_ratio": ("share", "higher"),
    })
    for scheme in ROSTER:
        metrics[f"core.columnar.{scheme}.refs_per_s"] = rate
    metrics.update({
        "core.columnar.roster_refs_per_s": rate,
        "core.record_simulate_s": seconds,
        "core.record_refs_per_s": rate,
        "protocols.kernel_cells": ("count", "higher"),
        "protocols.generic_cells": ("count", "lower"),
        "protocols.generic_time_share": share_low,
    })
    for scheme in PAPER_SCHEMES:
        metrics[f"protocols.chunked.{scheme}.refs_per_s"] = rate
        metrics[f"protocols.chunked.{scheme}-{FINITE_GEOMETRY}.refs_per_s"] = rate
    for scheme in PAPER_SCHEMES:
        metrics[f"memory.finite_slowdown.{scheme}"] = ("ratio", "lower")
    metrics.update({
        "engine.pool_speedup": ("ratio", "higher"),
        "engine.pool_idle_share": share_low,
        "engine.pool_start_s": seconds,
        "engine.shm_pack_s": seconds,
        "engine.serial_overhead_s": seconds,
        "report.analysis_s": seconds,
        "service.submit_p50_s": seconds,
        "service.fetch_p50_s": seconds,
        "service.overhead_p50_s": seconds,
        "service.sim_share": ("share", "higher"),
        "service.cells_simulated": ("count", "lower"),
        "service.cells_cached": ("count", "higher"),
        "service.replay.build_s": seconds,
        "service.replay.simulate_s": seconds,
        "service.replay.encode_s": seconds,
        "harness.trace_overhead_share": share_low,
        "harness.accounting_gap_share": share_low,
    })
    return metrics


#: Per-layer metrics: name -> (unit, better).  The ungated end-to-end
#: metrics come first, as medians over the untraced iterations; the
#: layer metrics come from the traced run.  A workload that lacks a
#: metric, or never calls into a layer, reports it as 0.
PER_LAYER = _per_layer()


def summarize(samples: Sequence[float]) -> dict[str, float | int]:
    """The samples' median, quartiles and count."""
    values = sorted(float(value) for value in samples)
    if not values:
        raise ValueError("no samples to summarize")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
