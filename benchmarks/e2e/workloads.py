"""The four workloads of the end-to-end benchmark.

Each workload is what a user of the reproduction waits for:
regenerating the paper's artifacts, sweeping the protocol roster,
streaming large traces through the chunked store, and submitting jobs
to the simulation service.  Sizes are constructor arguments, so the
smoke test drives the same code at tiny sizes.

Life cycle, driven by ``run.py`` in a fresh process per workload::

    setup()  ->  iteration(0), iteration(1), ...  ->  traced(tracer, samples)
             ->  verify()  ->  close()

``iteration`` returns one sample: its seconds and the numbers the
end-to-end metrics are made of.  ``traced`` runs one more iteration
with spans around the program's public entry points, plus in-process
replays of work that happens in pool workers or the server, and
returns the per-layer metrics.  Mismatched outputs are collected in
``problems``; the harness then reports no metrics.

Every input comes from ``make_trace``/``stream_trace`` with each
workload config's default seed plus the benchmark seed, so seed 0 gives
the paper traces.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterator

import repro
import repro.core.simulator as simulator_module
import repro.engine.plan as plan_module
import repro.runner.cache as cache_module
import repro.store as store_module
from repro.core.result import SimulationResult
from repro.core.simulator import Simulator
from repro.engine import Engine, ExecutionPlan, TraceArena
from repro.report.experiments import PaperExperiments
from repro.runner.cache import ResultCache, cache_key
from repro.runner.checkpoint import result_to_json
from repro.service.client import ServiceClient
from repro.service.spec import TraceSpec
from repro.store import ChunkedTrace
from repro.trace.columnar import ColumnarTrace
from repro.workloads.base import SyntheticWorkload
from repro.workloads.registry import make_trace, stream_trace, workload_config

from metrics import FINITE_GEOMETRY, PAPER_SCHEMES, ROSTER
from spans import Span, Tracer

now = time.perf_counter


def seeded(name: str, offset: int) -> int:
    """The workload config's default seed shifted by the benchmark seed."""
    return workload_config(name).seed + offset


#: The paper's three traces.
PAPER_TRACES = ("pops", "thor", "pero")


def build_traces(names: tuple[str, ...], length: int, seed: int) -> list[Any]:
    """``make_trace`` for each named workload at the benchmark seed."""
    return [make_trace(name, length=length, seed=seeded(name, seed)) for name in names]


def sha256_json(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def sweep_json(outcome: Any, schemes: Any, trace_names: Any) -> list[dict]:
    """Every cell's ``result_to_json`` in sweep order."""
    return [
        result_to_json(outcome.results[scheme][name])
        for scheme in schemes
        for name in trace_names
        if name in outcome.results.get(scheme, {})
    ]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


class Workload:
    """Shared bookkeeping: digests, correctness problems, op counts."""

    name = ""
    #: Time the traced iteration and its replays take, in untraced
    #: iterations; the run stops its untraced loop early enough for it.
    traced_cost = 1.5
    #: Untraced iterations every run makes, however short its window.
    min_iterations = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def record_digest(self, digest: str) -> None:
        if self.digests and digest != self.digests[0]:
            self.problems.append(
                f"{self.name}: iteration {len(self.digests)} digest {digest[:12]} "
                f"differs from the first iteration's {self.digests[0][:12]}"
            )
        self.digests.append(digest)

    def digest(self) -> str | None:
        """The run's result digest (identical across iterations)."""
        return self.digests[0] if self.digests else None

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def harness_metrics(
        self, tracer: Tracer, roots: list[Span], traced_s: float, untraced_s: float
    ) -> dict[str, float]:
        covered = sum(root.duration for root in roots)
        gap = sum(tracer.self_time(root) for root in roots)
        return {
            "harness.trace_overhead_share": traced_s / untraced_s - 1.0,
            "harness.accounting_gap_share": gap / covered,
        }

    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self, index: int) -> dict[str, Any]:
        raise NotImplementedError

    def e2e(self, samples: list[dict[str, Any]]) -> dict[str, list[float]]:
        """Per end-to-end metric, the samples its summary is taken over."""
        raise NotImplementedError

    def traced(self, tracer: Tracer, samples: list[dict[str, Any]]) -> dict[str, float]:
        raise NotImplementedError

    def verify(self) -> None:
        """Cross-check outputs against an independent computation."""

    def close(self) -> None:
        """Release what setup started."""


# ----------------------------------------------------------------------
# paper-artifacts
# ----------------------------------------------------------------------


class _Experiments(PaperExperiments):
    """The paper's artifact generator over traces built by the benchmark."""

    def __init__(self, traces: list[Any], simulator: Simulator | None = None) -> None:
        super().__init__(length=len(traces[0]), simulator=simulator)
        self._given = traces

    @property
    def traces(self) -> list[Any]:
        return self._given


class _CountingSimulator(Simulator):
    """A simulator that adds up the references it simulates.

    The artifact code calls the simulator internally, so this is how
    its throughput is known.
    """

    def __init__(self) -> None:
        super().__init__()
        self.refs = 0

    def run(self, *args: Any, **kwargs: Any) -> SimulationResult:
        result = super().run(*args, **kwargs)
        self.refs += result.total_refs
        return result


class PaperArtifacts(Workload):
    """Regenerate every table, figure and section of the paper."""

    name = "paper-artifacts"
    traced_cost = 1.3

    def __init__(
        self, seed: int, workdir: Path, length: int = 50_000, warmup_length: int = 2_000
    ) -> None:
        super().__init__(seed, workdir)
        self.length = length
        self.warmup_length = warmup_length

    def setup(self) -> None:
        # Imports every analysis module and fills lazy state.
        warmup = build_traces(PAPER_TRACES, self.warmup_length, self.seed)
        _Experiments(warmup).all_artifacts()

    def iteration(self, index: int) -> dict[str, Any]:
        start = now()
        traces = build_traces(PAPER_TRACES, self.length, self.seed)
        built = now()
        simulator = _CountingSimulator()
        artifacts = _Experiments(traces, simulator).all_artifacts()
        end = now()
        self.record_digest(
            sha256_json([[a.artifact_id, a.text] for a in artifacts])
        )
        self.attempted += len(artifacts)
        return {
            "iteration_s": end - start,
            "wall_s": end - start,
            "warm_wall_s": end - built,
            "gen_refs_per_s": sum(len(t) for t in traces) / (built - start),
            "refs_per_s": simulator.refs / (end - built),
        }

    def e2e(self, samples: list[dict[str, Any]]) -> dict[str, list[float]]:
        keys = ("wall_s", "warm_wall_s", "refs_per_s", "gen_refs_per_s")
        return {key: [sample[key] for sample in samples] for key in keys}

    def traced(self, tracer: Tracer, samples: list[dict[str, Any]]) -> dict[str, float]:
        tracer.wrap(SyntheticWorkload, "build", "workloads")
        tracer.wrap(
            Simulator, "run", "core",
            describe=lambda result, *a, **k: {"refs": result.total_refs},
        )
        tracer.wrap(PaperExperiments, "all_artifacts", "report")
        try:
            with tracer.span(f"{self.name}.iteration", "harness") as root:
                self.iteration(len(samples))
        finally:
            tracer.unwrap()
        gen = tracer.total("SyntheticWorkload.build", root)
        runs = tracer.named("Simulator.run", root)
        simulate = sum(span.duration for span in runs)
        refs = sum(span.attrs["refs"] for span in runs)
        untraced = statistics.median(s["iteration_s"] for s in samples)
        return {
            "workloads.gen_s": gen,
            "core.record_simulate_s": simulate,
            "core.record_refs_per_s": refs / simulate,
            "report.analysis_s": root.duration - gen - simulate,
            **self.harness_metrics(tracer, [root], root.duration, untraced),
        }


# ----------------------------------------------------------------------
# roster-sweep
# ----------------------------------------------------------------------


class RosterSweep(Workload):
    """``repro run --columnar --jobs 2 --result-cache`` over the full roster."""

    name = "roster-sweep"
    traced_cost = 2.3
    #: Pool workers: at most two, so load never exceeds a 2-core host.
    JOBS = 2
    #: Warm passes after each cold one; each is a warm_wall_s sample.
    WARM_PASSES = 3

    def __init__(
        self, seed: int, workdir: Path, length: int = 100_000, warmup_length: int = 500
    ) -> None:
        super().__init__(seed, workdir)
        self.length = length
        self.warmup_length = warmup_length
        self.setup_layers: dict[str, float] = {}

    def _plan(self, traces: list[Any]) -> ExecutionPlan:
        return ExecutionPlan(traces=traces, schemes=list(ROSTER))

    def _digest(self, outcome: Any) -> str:
        return sha256_json(sweep_json(outcome, ROSTER, PAPER_TRACES))

    def setup(self) -> None:
        traces = build_traces(PAPER_TRACES, self.length, self.seed)
        tiny = [
            ColumnarTrace.from_trace(trace)
            for trace in build_traces(PAPER_TRACES, self.warmup_length, self.seed)
        ]
        start = now()
        self.columnar = [ColumnarTrace.from_trace(trace) for trace in traces]
        packed = now()
        # A small sweep starts the warm worker pool that every later
        # sweep of this process reuses.
        Engine(jobs=self.JOBS).run(self._plan(tiny))
        self.setup_layers = {
            "trace.columnarize_refs_per_s": 3 * self.length / (packed - start),
            "engine.pool_start_s": now() - packed,
        }

    def iteration(self, index: int) -> dict[str, Any]:
        cache_dir = self.workdir / f"cache-{index}"
        warm_s = []
        try:
            engine = Engine(jobs=self.JOBS, result_cache=ResultCache(cache_dir))
            start = now()
            cold = engine.run(self._plan(self.columnar))
            cold_s = now() - start
            digest = self._digest(cold)
            failed = len(cold.all_failures())
            for _ in range(self.WARM_PASSES):
                start = now()
                warm = engine.run(self._plan(self.columnar))
                warm_s.append(now() - start)
                failed += len(warm.all_failures())
                self.check(
                    self._digest(warm) == digest,
                    f"{self.name}: a warm pass differs from the cold pass",
                )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.record_digest(digest)
        self.last_cold = cold
        self.attempted += len(ROSTER) * len(PAPER_TRACES) * (1 + self.WARM_PASSES)
        self.failed += failed
        refs = sum(r.total_refs for per in cold.results.values() for r in per.values())
        return {
            "iteration_s": cold_s + sum(warm_s),
            "wall_s": cold_s,
            "warm_wall_s": warm_s,
            "refs_per_s": refs / cold_s,
        }

    def e2e(self, samples: list[dict[str, Any]]) -> dict[str, list[float]]:
        return {
            "wall_s": [s["wall_s"] for s in samples],
            "warm_wall_s": [w for s in samples for w in s["warm_wall_s"]],
            "refs_per_s": [s["refs_per_s"] for s in samples],
        }

    def _serial_replay(self, tracer: Tracer) -> list[dict[str, Any]]:
        """Each cell serially in-process, as a pool worker runs it.

        The simulator tries a state-table kernel first and falls back
        to the generic columnar loop when ``kernel_run`` returns None;
        the span around that call says which path ran the cell.
        """
        simulator = Simulator()
        tracer.wrap(
            simulator_module, "kernel_run", "protocols",
            describe=lambda result, *a: {"kernel": result is not None},
        )
        cells = []
        try:
            for scheme in ROSTER:
                for trace in self.columnar:
                    with tracer.span("serial.cell", "core", scheme=scheme) as cell:
                        result = simulator.run(trace, scheme)
                    (attempt,) = tracer.named("kernel_run", cell)
                    result.scheme = scheme
                    cells.append({
                        "scheme": scheme,
                        "kernel": attempt.attrs["kernel"],
                        "seconds": cell.duration,
                        "refs": result.total_refs,
                        "json": result_to_json(result),
                    })
        finally:
            tracer.unwrap()
        return cells

    def traced(self, tracer: Tracer, samples: list[dict[str, Any]]) -> dict[str, float]:
        tracer.wrap(Engine, "run", "engine")
        tracer.wrap(
            plan_module, "trace_fingerprint", "trace",
            describe=lambda result, trace: {"refs": len(trace)},
        )
        tracer.wrap(
            ResultCache, "get", "runner",
            describe=lambda result, *a: {"hit": result is not None},
        )
        tracer.wrap(ResultCache, "put", "runner")
        tracer.wrap(TraceArena, "create", "engine")
        try:
            with tracer.span(f"{self.name}.iteration", "harness") as root:
                self.iteration(len(samples))
        finally:
            tracer.unwrap()
        fingerprints = tracer.named("trace_fingerprint", root)
        gets = tracer.named("ResultCache.get", root)

        with tracer.span(f"{self.name}.serial_replay", "harness"):
            cells = self._serial_replay(tracer)
        self.check(
            [cell["json"] for cell in cells]
            == sweep_json(self.last_cold, ROSTER, PAPER_TRACES),
            f"{self.name}: serial in-process results differ from the pooled sweep",
        )
        serial_s = sum(cell["seconds"] for cell in cells)
        generic = [cell for cell in cells if not cell["kernel"]]
        pooled_s = statistics.median(s["wall_s"] for s in samples)
        layers = {
            "trace.fingerprint_refs_per_s": (
                sum(span.attrs["refs"] for span in fingerprints)
                / sum(span.duration for span in fingerprints)
            ),
            "runner.cache_put_s": tracer.total("ResultCache.put", root),
            "runner.cache_get_s": sum(span.duration for span in gets),
            "runner.cache_hit_ratio": sum(s.attrs["hit"] for s in gets) / len(gets),
            "engine.shm_pack_s": tracer.total("TraceArena.create", root),
            "core.columnar.roster_refs_per_s": (
                sum(cell["refs"] for cell in cells) / serial_s
            ),
            "protocols.kernel_cells": len(cells) - len(generic),
            "protocols.generic_cells": len(generic),
            "protocols.generic_time_share": (
                sum(cell["seconds"] for cell in generic) / serial_s
            ),
            "engine.pool_speedup": serial_s / pooled_s,
            "engine.pool_idle_share": 1.0 - serial_s / (self.JOBS * pooled_s),
            **self.setup_layers,
        }
        for scheme in ROSTER:
            mine = [cell for cell in cells if cell["scheme"] == scheme]
            layers[f"core.columnar.{scheme}.refs_per_s"] = (
                sum(cell["refs"] for cell in mine) / sum(c["seconds"] for c in mine)
            )
        untraced = statistics.median(s["iteration_s"] for s in samples)
        layers.update(self.harness_metrics(tracer, [root], root.duration, untraced))
        return layers


# ----------------------------------------------------------------------
# ctrc-stream
# ----------------------------------------------------------------------

#: The chunked sweep's cells: each paper scheme infinite, then finite.
CHUNKED_SPECS = tuple(
    spec
    for scheme in PAPER_SCHEMES
    for spec in (scheme, f"{scheme}@{FINITE_GEOMETRY}")
)


def spec_metric_name(spec: str) -> str:
    """``dragon@256x2`` -> ``dragon-256x2`` (metric names take no ``@``)."""
    return spec.replace("@", "-")


class CtrcStream(Workload):
    """``repro trace gen`` into ``.ctrc`` files, then a serial chunked sweep."""

    name = "ctrc-stream"
    traced_cost = 1.8
    TRACES = ("thor", "pero")
    #: The cell cross-checked against the in-memory columnar path.
    CHECKED_CELL = (f"dragon@{FINITE_GEOMETRY}", "pero")

    def __init__(
        self,
        seed: int,
        workdir: Path,
        length: int = 250_000,
        chunk_records: int = 65_536,
        warmup_length: int = 3_000,
    ) -> None:
        super().__init__(seed, workdir)
        self.length = length
        self.chunk_records = chunk_records
        self.warmup_length = warmup_length

    def _records(self, name: str, length: int) -> Iterator[Any]:
        return stream_trace(name, length=length, seed=seeded(name, self.seed))

    def _write(self, length: int) -> list[Path]:
        paths = []
        for name in self.TRACES:
            path = self.workdir / f"{name}.ctrc"
            store_module.write_stream(
                self._records(name, length), path, name=name,
                chunk_records=self.chunk_records,
            )
            paths.append(path)
        return paths

    def _sweep(self, paths: list[Path]) -> Any:
        traces = [ChunkedTrace(path) for path in paths]
        try:
            return Engine().run(ExecutionPlan(traces=traces, schemes=list(CHUNKED_SPECS)))
        finally:
            for trace in traces:
                trace.close()

    def setup(self) -> None:
        self._sweep(self._write(self.warmup_length))

    def iteration(self, index: int) -> dict[str, Any]:
        start = now()
        self.paths = self._write(self.length)
        written = now()
        outcome = self._sweep(self.paths)
        end = now()
        self.record_digest(sha256_json(sweep_json(outcome, CHUNKED_SPECS, self.TRACES)))
        self.attempted += len(CHUNKED_SPECS) * len(self.TRACES)
        self.failed += len(outcome.all_failures())
        spec, trace_name = self.CHECKED_CELL
        self.checked_json = result_to_json(outcome.results[spec][trace_name])
        refs = sum(r.total_refs for per in outcome.results.values() for r in per.values())
        return {
            "iteration_s": end - start,
            "wall_s": end - start,
            "warm_wall_s": end - written,
            "gen_refs_per_s": len(self.TRACES) * self.length / (written - start),
            "refs_per_s": refs / (end - written),
        }

    def e2e(self, samples: list[dict[str, Any]]) -> dict[str, list[float]]:
        keys = ("wall_s", "warm_wall_s", "refs_per_s", "gen_refs_per_s")
        return {key: [sample[key] for sample in samples] for key in keys}

    def traced(self, tracer: Tracer, samples: list[dict[str, Any]]) -> dict[str, float]:
        tracer.wrap(store_module, "write_stream", "store")
        tracer.wrap(Engine, "run", "engine")
        tracer.wrap(
            Simulator, "run", "core",
            describe=lambda result, *a, **k: {"refs": result.total_refs},
        )
        tracer.wrap(ChunkedTrace, "iter_chunks", "store")
        tracer.wrap(simulator_module, "open_kernel_session", "protocols")
        try:
            with tracer.span(f"{self.name}.iteration", "harness") as root:
                self.iteration(len(samples))
        finally:
            tracer.unwrap()
        (engine_run,) = tracer.named("Engine.run", root)
        runs = tracer.named("Simulator.run", root)
        # The serial engine visits cells in sweep order, scheme-major.
        self.check(
            len(runs) == len(CHUNKED_SPECS) * len(self.TRACES),
            f"{self.name}: expected one simulation per cell, saw {len(runs)}",
        )
        seconds: dict[str, float] = {}
        refs: dict[str, int] = {}
        for position, span in enumerate(runs):
            spec = CHUNKED_SPECS[position // len(self.TRACES)]
            seconds[spec] = seconds.get(spec, 0.0) + span.duration
            refs[spec] = refs.get(spec, 0) + span.attrs["refs"]
        layers: dict[str, float] = {
            f"protocols.chunked.{spec_metric_name(spec)}.refs_per_s": (
                refs[spec] / seconds[spec]
            )
            for spec in CHUNKED_SPECS
        }
        for scheme in PAPER_SCHEMES:
            layers[f"memory.finite_slowdown.{scheme}"] = (
                seconds[f"{scheme}@{FINITE_GEOMETRY}"] / seconds[scheme]
            )
        layers["engine.serial_overhead_s"] = engine_run.duration - sum(
            span.duration for span in runs
        )
        untraced = statistics.median(s["iteration_s"] for s in samples)
        layers.update(self.harness_metrics(tracer, [root], root.duration, untraced))

        refs_total = len(self.TRACES) * self.length
        with tracer.span(f"{self.name}.drain", "workloads") as drain:
            for name in self.TRACES:
                for _ in self._records(name, self.length):
                    pass
        with tracer.span(f"{self.name}.decode", "store") as decode:
            for path in self.paths:
                with ChunkedTrace(path) as trace:
                    for chunk in trace.iter_chunks():
                        chunk.data_view("pid")
        layers.update({
            "workloads.stream_refs_per_s": refs_total / drain.duration,
            "store.encode_s": tracer.total("write_stream", root) - drain.duration,
            "store.decode_refs_per_s": refs_total / decode.duration,
            "store.bytes_per_ref": (
                sum(path.stat().st_size for path in self.paths) / refs_total
            ),
        })
        return layers

    def verify(self) -> None:
        spec, trace_name = self.CHECKED_CELL
        scheme, _, geometry = spec.partition("@")
        (trace,) = build_traces((trace_name,), self.length, self.seed)
        local = Simulator().run(
            ColumnarTrace.from_trace(trace), scheme, geometry=geometry
        )
        local.scheme = spec
        self.check(
            result_to_json(local) == self.checked_json,
            f"{self.name}: chunked {spec} on {trace_name} differs from the "
            "in-memory columnar run",
        )

    def close(self) -> None:
        for name in self.TRACES:
            (self.workdir / f"{name}.ctrc").unlink(missing_ok=True)


# ----------------------------------------------------------------------
# service-jobs
# ----------------------------------------------------------------------

TERMINAL_STATES = ("done", "failed", "cancelled")


class ServiceJobs(Workload):
    """A closed loop of one client submitting jobs to ``repro serve``.

    Fresh jobs (new trace seeds) are simulated; every ``REPEAT_EVERY``-th
    job resubmits the job ``REPEAT_EVERY - 1`` back, which the service
    answers from its result memo or cache.
    """

    name = "service-jobs"
    TRACES = ("pops", "thor")
    REPEAT_EVERY = 4
    # Fresh jobs and one repeat.
    min_iterations = REPEAT_EVERY

    def __init__(
        self,
        seed: int,
        workdir: Path,
        length: int = 20_000,
        traced_jobs: int = 8,
        warmup_length: int = 500,
    ) -> None:
        super().__init__(seed, workdir)
        self.length = length
        self.traced_jobs = traced_jobs
        self.warmup_length = warmup_length
        # The traced jobs and the replay, in untraced jobs.
        self.traced_cost = traced_jobs + 4.0
        self.specs: dict[int, dict[str, Any]] = {}
        self.results: dict[int, Any] = {}
        self.server: subprocess.Popen | None = None

    def _fresh_spec(self, index: int, length: int) -> dict[str, Any]:
        job_seed = 1000 * self.seed + index
        return {
            "schemes": list(PAPER_SCHEMES),
            "traces": [
                {"workload": name, "length": length, "seed": seeded(name, job_seed)}
                for name in self.TRACES
            ],
        }

    def setup(self) -> None:
        state = self.workdir / "service"
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log = open(self.workdir / "server.log", "w", encoding="utf-8")
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", "1", "--state-dir", str(state),
                "--result-cache", str(state / "cache"),
            ],
            stdout=subprocess.PIPE, stderr=self.log, env=env, text=True,
        )
        line = self.server.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.client = ServiceClient(line.split()[-1], timeout=120.0)
        self.client.health()
        self._run_job(self._fresh_spec(0, self.warmup_length))

    def _run_job(self, spec: dict[str, Any]) -> dict[str, Any]:
        """Submit, follow events to the terminal one, fetch the result."""
        start = now()
        job = self.client.submit(spec)
        first_cell = None
        for event in self.client.stream_events(job["id"]):
            if first_cell is None and event.get("type") == "cell":
                first_cell = now() - start
            if event.get("type") == "job" and event.get("state") in TERMINAL_STATES:
                break
        status = self.client.job(job["id"])
        return {
            "latency_s": now() - start,
            "first_cell_s": first_cell,
            "status": status,
        }

    def iteration(self, index: int) -> dict[str, Any]:
        repeat = index % self.REPEAT_EVERY == self.REPEAT_EVERY - 1
        original = index - (self.REPEAT_EVERY - 1)
        spec = self.specs[original] if repeat else self._fresh_spec(index, self.length)
        self.specs[index] = spec
        run = self._run_job(spec)
        status = run.pop("status")
        results = status.get("results") or {}
        ok = status.get("state") == "done" and status["cells"]["errors"] == 0
        self.attempted += 1
        self.failed += 0 if ok else 1
        if repeat:
            self.check(
                results == self.results[original],
                f"{self.name}: job {index} (a repeat of job {original}) differs "
                "from the original",
            )
        else:
            self.results[index] = results
        if index == self.REPEAT_EVERY - 2:
            # The first fresh jobs of the loop; later ones depend on how
            # many jobs fit in the run.
            self.record_digest(
                sha256_json([self.results[i] for i in range(self.REPEAT_EVERY - 1)])
            )
        refs = sum(r["total_refs"] for per in results.values() for r in per.values())
        return {
            **run,
            "iteration_s": run["latency_s"],
            "kind": "repeat" if repeat else "fresh",
            "refs": refs,
        }

    def e2e(self, samples: list[dict[str, Any]]) -> dict[str, list[float]]:
        fresh = [s for s in samples if s["kind"] == "fresh"]
        repeats = [s["latency_s"] for s in samples if s["kind"] == "repeat"]
        latencies = [s["latency_s"] for s in fresh]
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        return {
            "wall_s": latencies,
            "warm_wall_s": repeats,
            "refs_per_s": [s["refs"] / s["latency_s"] for s in fresh],
            "latency_p50_s": latencies,
            "latency_p90_s": [p90],
            "first_cell_p50_s": [s["first_cell_s"] for s in fresh],
            "jobs_per_s": [len(samples) / sum(s["latency_s"] for s in samples)],
            "repeat_latency_p50_s": repeats,
        }

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.server.pid)

    def _replay(self, tracer: Tracer, index: int) -> dict[str, float]:
        """Run one fresh job's cells in-process, as the server does."""
        spec = self.specs[index]
        simulator = Simulator()
        with tracer.span("replay.build", "service") as build:
            traces = [TraceSpec(**trace).build() for trace in spec["traces"]]
        with tracer.span("replay.fingerprint", "trace") as fingerprint:
            fingerprints = [cache_module.trace_fingerprint(trace) for trace in traces]
        with tracer.span("replay.simulate", "service") as simulate:
            results = [
                (scheme, trace, simulator.run(trace, scheme))
                for scheme in spec["schemes"]
                for trace in traces
            ]
        with tracer.span("replay.encode", "service") as encode:
            encoded = [result_to_json(result) for _, _, result in results]
        replayed: dict[str, dict[str, Any]] = {}
        for (scheme, trace, _), payload in zip(results, encoded):
            replayed.setdefault(scheme, {})[trace.name] = payload
        self.check(
            replayed == self.results[index],
            f"{self.name}: job {index} differs from a local Simulator run",
        )
        cache = ResultCache(self.workdir / "replay-cache")
        keys = [
            cache_key(scheme, simulator, fingerprints[traces.index(trace)])
            for scheme, trace, _ in results
        ]
        with tracer.span("replay.cache_put", "runner") as put:
            for key, (_, _, result) in zip(keys, results):
                cache.put(key, result)
        with tracer.span("replay.cache_get", "runner") as get:
            for key in keys:
                cache.get(key)
        shutil.rmtree(self.workdir / "replay-cache", ignore_errors=True)
        return {
            "service.replay.build_s": build.duration,
            "service.replay.simulate_s": simulate.duration,
            "service.replay.encode_s": encode.duration,
            "trace.fingerprint_refs_per_s": (
                sum(len(trace) for trace in traces) / fingerprint.duration
            ),
            "runner.cache_put_s": put.duration,
            "runner.cache_get_s": get.duration,
        }

    def traced(self, tracer: Tracer, samples: list[dict[str, Any]]) -> dict[str, float]:
        for call in ("submit", "job", "stream_events", "stats"):
            tracer.wrap(ServiceClient, call, "service")
        roots, fresh, overheads = [], [], []
        simulated = cached = 0
        sim_seconds = 0.0
        try:
            for index in range(len(samples), len(samples) + self.traced_jobs):
                tracer.iteration = index
                with tracer.span(f"{self.name}.job", "harness") as root:
                    before = self.client.stats()
                    sample = self.iteration(index)
                    after = self.client.stats()
                roots.append(root)
                simulated += after["cells"]["simulated"] - before["cells"]["simulated"]
                cached += after["cells"]["cache"] - before["cells"]["cache"]
                if sample["kind"] == "fresh":
                    delta = after["engine"]["sim_seconds"] - before["engine"]["sim_seconds"]
                    fresh.append((index, sample["latency_s"]))
                    overheads.append(sample["latency_s"] - delta)
                    sim_seconds += delta
        finally:
            tracer.unwrap()
            tracer.iteration = None

        def p50(suffix: str) -> float:
            return statistics.median(
                span.duration
                for root in roots
                for span in tracer.named(suffix, root)
            )

        untraced_p50 = statistics.median(
            s["latency_s"] for s in samples if s["kind"] == "fresh"
        )
        traced_p50 = statistics.median(latency for _, latency in fresh)
        return {
            "service.submit_p50_s": p50("ServiceClient.submit"),
            "service.fetch_p50_s": p50("ServiceClient.job"),
            "service.overhead_p50_s": statistics.median(overheads),
            "service.sim_share": sim_seconds / sum(latency for _, latency in fresh),
            "service.cells_simulated": simulated,
            "service.cells_cached": cached,
            "runner.cache_hit_ratio": cached / (cached + simulated),
            **self._replay(tracer, fresh[0][0]),
            **self.harness_metrics(tracer, roots, traced_p50, untraced_p50),
        }

    def verify(self) -> None:
        # The first fresh job against a local in-process run of its cells.
        self._replay(Tracer(self.name), min(self.results))

    def close(self) -> None:
        if self.server is None:
            return
        try:
            if self.server.poll() is None:
                self.client.shutdown("drain")
                self.server.wait(timeout=30)
        except Exception:
            self.server.kill()
            self.server.wait()
        finally:
            self.server.stdout.close()
            self.log.close()


WORKLOADS = {
    workload.name: workload
    for workload in (PaperArtifacts, RosterSweep, CtrcStream, ServiceJobs)
}
