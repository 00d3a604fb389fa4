#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python benchmarks/e2e/compare.py BASE CANDIDATE

BASE and CANDIDATE are results files written by ``run.py`` (under
``benchmarks/e2e/out/``) or directories holding them.  For every
workload and end-to-end metric the two sides report, gated or not,
prints the median and quartiles of each side's run values (a run's
value is its samples' median; for a single run, its samples' quartiles
stand in), the candidate's change against the metric's bound, and a
verdict:

* ``unresolved`` -- either side's spread (quartile distance over the
  median) is wider than the bound, so the runs cannot tell;
* ``regressed`` / ``improved`` -- the median moved the wrong / right
  way by more than the bound;
* ``unchanged`` -- otherwise.

It also reports whether runs of the same workload and seed produced
identical result digests.  Exits 1 when a metric regressed or digests
disagree.  Run both sides alternately on one machine: a shared host's
speed drifts by more than the timing bounds over minutes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

from metrics import E2E


def load(path: str) -> list[dict[str, Any]]:
    """Every results file at *path* (a file or a directory of them)."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    results = []
    for file in files:
        payload = json.loads(file.read_text())
        if isinstance(payload, dict) and "e2e" in payload:
            results.append(payload)
    if not results:
        raise SystemExit(f"compare.py: no results files at {path}")
    return results


def side_stats(runs: list[dict[str, Any]]) -> dict[str, float]:
    """One side's center and spread for a metric.

    Over several runs: the median and quartiles of the runs' values.  A
    single run has no run-to-run spread, so its samples' quartiles
    stand in for it.
    """
    if len(runs) == 1:
        (run,) = runs
        center, q1, q3 = run["median"], run["q1"], run["q3"]
    else:
        values = [run["median"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        center = statistics.median(values)
    return {"center": center, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / center if center else 0.0, "n": len(runs)}


def verdict(base: dict[str, float], cand: dict[str, float], better: str,
            bound: float) -> tuple[float, str]:
    """The candidate's relative worsening and its verdict."""
    if base["center"]:
        change = (cand["center"] - base["center"]) / base["center"]
    else:  # failed_share, 0 at the baseline
        change = cand["center"] - base["center"]
    worse = change if better == "lower" else -change
    if max(base["spread"], cand["spread"]) > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "unchanged"


def digest_conflicts(results: list[dict[str, Any]]) -> list[str]:
    seen: dict[tuple[str, int], set[str | None]] = {}
    for result in results:
        seen.setdefault((result["workload"], result["seed"]), set()).add(result["digest"])
    return [
        f"{workload} seed {seed}: {len(digests)} different digests"
        for (workload, seed), digests in sorted(seen.items())
        if len(digests) > 1
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_runs, cand_runs = load(argv[0]), load(argv[1])
    status = 0
    workloads = sorted({r["workload"] for r in base_runs} & {r["workload"] for r in cand_runs})
    for workload in workloads:
        base = [r for r in base_runs if r["workload"] == workload]
        cand = [r for r in cand_runs if r["workload"] == workload]
        print(f"== {workload}: {len(base)} base runs, {len(cand)} candidate runs ==")
        print(f"{'metric':<22} {'unit':<6} {'base median [q1, q3]':>36} "
              f"{'candidate median [q1, q3]':>36} {'worse':>8} {'bound':>6}  verdict")
        for metric, spec in E2E.items():
            base_metric = [r["e2e"][metric] for r in base if metric in r["e2e"]]
            cand_metric = [r["e2e"][metric] for r in cand if metric in r["e2e"]]
            if not base_metric or not cand_metric:
                continue
            b, c = side_stats(base_metric), side_stats(cand_metric)
            worse, word = verdict(b, c, spec.better, spec.bound)
            status |= word == "regressed"
            print(f"{metric:<22} {spec.unit:<6} "
                  f"{b['center']:>12.5g} [{b['q1']:>9.4g}, {b['q3']:>9.4g}] "
                  f"{c['center']:>12.5g} [{c['q1']:>9.4g}, {c['q3']:>9.4g}] "
                  f"{100 * worse:>7.2f}% {100 * spec.bound:>5.1f}%  {word}")
    conflicts = digest_conflicts(base_runs + cand_runs)
    for conflict in conflicts:
        print(f"digest mismatch: {conflict}")
    if not conflicts:
        print("digests: identical for every workload and seed run on both sides")
    return 1 if status or conflicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
