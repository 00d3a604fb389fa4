"""The chaos harness: SIGKILL a fleet member mid-cell, prove nothing broke.

The scenario (ISSUE acceptance criterion, runnable as ``repro chaos``
or ``make chaos``):

1. run the sweep **serially** through the engine — the ground truth;
2. submit the same sweep to a fresh fabric database and start N real
   ``repro work`` processes on it;
3. one worker — chosen by a seeded
   :class:`~repro.runner.faults.FaultInjector` kill plan — carries
   ``REPRO_CHAOS_KILL`` in its environment and SIGKILLs *itself* after
   an exact number of completed data references inside an exact lease
   (:class:`~repro.runner.faults.ProcessKiller`), i.e. genuinely
   mid-cell, heartbeat thread and all;
4. the survivors reap the orphaned lease, re-run the cell, and drain
   the queue;
5. the harness then asserts, from the queue's own accounting:

   * every cell is ``done`` and the assembled results are
     **bit-for-bit identical** (canonical sorted JSON) to the serial
     run;
   * ``reassignments`` is exactly the number of kills (no cell was
     lost, none was requeued spuriously);
   * ``duplicate_completions`` is zero (idempotent settlement held);
   * nothing dead-lettered (the kill is one burned attempt, not an
     exhausted budget).

Everything is deterministic under ``--seed``: the same seed picks the
same victim, the same lease, the same reference count.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Mapping

from repro.core.simulator import Simulator
from repro.engine.core import Engine
from repro.engine.plan import ExecutionPlan
from repro.errors import ConfigurationError, ServiceError
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import result_to_json
from repro.runner.faults import FaultInjector, ProcessKiller
from repro.service.spec import JobSpec, parse_job_spec

from repro.fabric.queue import DurableCellQueue

#: Environment variable arming a worker's self-kill: ``"<lease>:<refs>"``.
ENV_KILL = "REPRO_CHAOS_KILL"

#: The default chaos sweep: enough cells that 3 workers all get work.
DEFAULT_SPEC = {
    "schemes": ["dir0b", "dir1nb", "dirnnb", "wti", "dragon", "berkeley"],
    "traces": [{"workload": "pops", "length": 4000, "seed": 7}],
}


def hook_from_env(
    environ: Mapping[str, str] | None = None,
):
    """The worker protocol hook armed by :data:`ENV_KILL`, or ``None``.

    The variable's value is ``"<lease index>:<refs>"``: on this
    worker's *lease index*-th lease (0-based), wrap the protocol so the
    process SIGKILLs itself after *refs* completed data references.
    ``repro work`` installs this hook automatically, which is how the
    harness reaches inside a real worker process deterministically.
    """
    environ = os.environ if environ is None else environ
    raw = environ.get(ENV_KILL)
    if not raw:
        return None
    try:
        lease_index, refs = (int(part) for part in raw.split(":"))
    except ValueError as exc:
        raise ConfigurationError(
            f"{ENV_KILL} must be '<lease>:<refs>', got {raw!r}"
        ) from exc

    def hook(worker, cell, protocol):
        if worker.leases - 1 == lease_index:
            return ProcessKiller(protocol, refs)
        return protocol

    return hook


def canonical_digest(results: dict[str, dict[str, Any]]) -> str:
    """Canonical sorted-JSON form of a ``{scheme: {trace: result}}`` grid."""
    return json.dumps(results, sort_keys=True)


def serial_results(spec: JobSpec) -> dict[str, dict[str, Any]]:
    """The ground truth: the sweep run serially through the engine."""
    simulator = Simulator(sharer_key=spec.sharer_key)
    traces = [tspec.build() for tspec in spec.traces]
    plan = ExecutionPlan(
        traces=traces, schemes=list(spec.scheme_specs()), simulator=simulator
    )
    outcome = Engine().run(plan)
    if outcome.failures:
        raise ServiceError(
            f"serial baseline failed: {outcome.failures[0].message}"
        )
    return {
        scheme: {
            name: result_to_json(result) for name, result in per_trace.items()
        }
        for scheme, per_trace in outcome.results.items()
    }


def _spawn_worker(
    *,
    db: Path,
    cache_dir: Path,
    worker_id: str,
    lease_s: float,
    kill: tuple[int, int] | None,
) -> subprocess.Popen:
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    if kill is not None:
        env[ENV_KILL] = f"{kill[0]}:{kill[1]}"
    else:
        env.pop(ENV_KILL, None)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "work",
            "--db", str(db),
            "--cache", str(cache_dir),
            "--worker-id", worker_id,
            "--lease", str(lease_s),
            "--poll", "0.05",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def run_chaos(
    *,
    db: str | Path,
    cache_dir: str | Path | None = None,
    spec_payload: dict[str, Any] | None = None,
    workers: int = 3,
    seed: int = 0,
    kill: bool = True,
    kill_worker: int | None = None,
    kill_lease: int = 0,
    kill_refs: int | None = None,
    lease_s: float = 3.0,
    timeout_s: float = 300.0,
) -> dict[str, Any]:
    """Run the kill-a-worker scenario end to end; returns the report.

    Args:
        db: fabric database path (must not already hold the job).
        cache_dir: shared result-cache directory (next to *db* when
            omitted) — the fleet-wide dedup layer under test.
        spec_payload: JSON job spec (default: :data:`DEFAULT_SPEC`).
        workers: fleet size (real ``repro work`` processes).
        seed: seeds the :class:`FaultInjector` that picks the victim
            and the kill reference count.
        kill: run the control scenario instead when False (no victim).
        kill_worker: victim index override (seeded pick when None).
        kill_lease: which of the victim's leases dies (0 = its first
            cell, guaranteeing the kill lands before the queue drains).
        kill_refs: data references completed before the SIGKILL
            (seeded pick when None).
        lease_s: fleet lease duration — kept short so the orphaned
            lease expires and the scenario stays fast.
        timeout_s: overall wall-clock bound.

    Returns:
        A JSON-safe report with ``ok`` plus every individual check.
    """
    db = Path(db)
    cache_dir = Path(cache_dir) if cache_dir is not None else db.parent / "cache"
    spec = parse_job_spec(dict(spec_payload or DEFAULT_SPEC))

    injector = FaultInjector(seed)
    planned_worker, _, planned_refs = injector.kill_plan(workers, max_refs=200)
    victim = kill_worker if kill_worker is not None else planned_worker
    if kill and not 0 <= victim < workers:
        raise ConfigurationError(
            f"kill_worker must be in [0, {workers}), got {victim}"
        )
    refs = kill_refs if kill_refs is not None else planned_refs

    expected = serial_results(spec)

    queue = DurableCellQueue(db)
    job_id = f"chaos-{seed}"
    if queue.job_state(job_id) is not None:
        raise ConfigurationError(
            f"fabric db {db} already holds job {job_id}; use a fresh db"
        )
    queue.submit(spec, job_id)

    processes: dict[int, subprocess.Popen] = {}
    deadline = time.monotonic() + timeout_s

    def spawn(number: int) -> None:
        is_victim = kill and number == victim
        processes[number] = _spawn_worker(
            db=db,
            cache_dir=cache_dir,
            worker_id=f"chaos-w{number}",
            lease_s=lease_s,
            kill=(kill_lease, refs) if is_victim else None,
        )

    try:
        if kill:
            # The victim runs alone until it dies (or drains the queue):
            # started together, the rest of the fleet can finish every
            # cell before the victim takes its armed lease.
            spawn(victim)
            while processes[victim].poll() is None:
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"chaos victim did not exit within {timeout_s}s"
                    )
                time.sleep(0.05)
        for number in range(workers):
            if number not in processes:
                spawn(number)
        exit_codes: list[int | None] = [None] * workers
        while time.monotonic() < deadline:
            for number, process in processes.items():
                if exit_codes[number] is None:
                    exit_codes[number] = process.poll()
            if all(code is not None for code in exit_codes):
                break
            time.sleep(0.1)
        else:
            raise ServiceError(
                f"chaos fleet did not drain within {timeout_s}s"
            )
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)

    victim_killed = (
        kill and exit_codes[victim] == -signal.SIGKILL
    )
    stats = queue.stats()
    assembled = queue.assemble(job_id)
    fabric_digest = canonical_digest(assembled["results"])
    serial_digest = canonical_digest(expected)

    expected_reassignments = 1 if kill else 0
    checks = {
        "victim_killed": victim_killed or not kill,
        "job_done": queue.job_state(job_id) == "done",
        "no_failures": not assembled["failures"],
        "digest_match": fabric_digest == serial_digest,
        "reassignments": stats["reassignments"] == expected_reassignments,
        "no_duplicates": stats["duplicate_completions"] == 0,
        "no_dead_letters": stats["dead_letters"] == 0,
        "all_cells_done": stats["cells"]["done"] == spec.cell_count(),
    }
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "kill": {
            "enabled": kill,
            "worker": victim,
            "lease": kill_lease,
            "refs": refs,
            "seed": seed,
        },
        "exit_codes": exit_codes,
        "serial_digest_sha": hashlib.sha256(
            serial_digest.encode("utf-8")
        ).hexdigest(),
        "fabric_digest_sha": hashlib.sha256(
            fabric_digest.encode("utf-8")
        ).hexdigest(),
        "stats": stats,
    }
