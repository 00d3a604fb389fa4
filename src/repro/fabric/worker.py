"""The fabric worker: lease, simulate, heartbeat, settle, repeat.

One :class:`FabricWorker` is the fleet's unit of compute — a process
(``repro work --db``) or an in-process thread (the service's fleet,
tests).  Its loop:

1. **reap** expired leases, then **lease** the next ready cell (which
   charges one attempt).  Every member reaps, so a SIGKILL'd member's
   cells go back to the survivors with no dedicated reaper anywhere;
2. **dedup** — if the shared content-addressed
   :class:`~repro.runner.cache.ResultCache` already holds the cell's
   outcome, settle it as a ``cache`` result without simulating.  The
   cache is what makes the never-simulate-twice claim hold *across*
   jobs and fleets, not just within one queue;
3. **simulate** with a heartbeat thread renewing the lease in the
   background, so a slow cell is not mistaken for a dead worker;
4. **settle** idempotently.  If this worker was presumed dead and the
   cell reassigned, the settle simply loses the race and is counted as
   a duplicate *completion* — the reassigned copy found the result in
   the cache at step 2, so no cell is ever *simulated* twice.

Failure routing uses the engine's :class:`~repro.engine.policies
.RetryPolicy` semantics: retryable errors requeue the cell with a
jittered backoff gate (dead-lettering once the attempt budget is
spent); permanent errors settle as a contained ``failed`` outcome, the
fabric analogue of :class:`~repro.core.experiment.CellFailure`.

The ``protocol_hook`` seam exists for the chaos harness
(:mod:`repro.fabric.chaos`): it wraps the freshly built protocol so a
deterministic fault — including SIGKILL of this very process mid-cell —
can be injected at an exact reference count.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
import zlib
from dataclasses import replace
from typing import Any, Callable

from repro.core.simulator import Simulator
from repro.engine.plan import build_protocol_for_cell
from repro.engine.policies import RetryPolicy
from repro.runner.cache import ResultCache, cache_key
from repro.runner.checkpoint import result_to_json
from repro.service.spec import TraceSpec

from repro.fabric.queue import DurableCellQueue, LeasedCell

#: A hook wrapping the protocol of one owned cell before simulation.
ProtocolHook = Callable[["FabricWorker", LeasedCell, Any], Any]


class _Heartbeat(threading.Thread):
    """Renews one cell's lease while its simulation runs."""

    def __init__(
        self,
        queue: DurableCellQueue,
        cell: LeasedCell,
        worker_id: str,
        *,
        lease_s: float,
        interval_s: float,
    ) -> None:
        super().__init__(name=f"repro-fabric-heartbeat-{cell.id}", daemon=True)
        self.queue = queue
        self.cell = cell
        self.worker_id = worker_id
        self.lease_s = lease_s
        self.interval_s = interval_s
        self._halt = threading.Event()
        #: Set when a renewal was refused — the lease was reassigned.
        self.lost = False

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            try:
                renewed = self.queue.heartbeat(
                    self.cell.id, self.worker_id, lease_s=self.lease_s
                )
            except Exception:
                continue  # a flaky renewal is retried next beat
            if not renewed:
                self.lost = True
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


class FabricWorker:
    """One fleet member pulling cells from a durable queue.

    Args:
        queue: the shared :class:`DurableCellQueue` (or a db path).
        worker_id: fleet-unique name; generated when omitted.
        result_cache: shared content-addressed result cache (the
            fleet-wide dedup layer); optional.
        retry: failure-classification and backoff policy.  Defaults to
            the engine policy with **full jitter** seeded per worker, so
            a restarted fleet spreads its retries instead of
            thundering-herding the queue — deterministically per
            worker id.
        lease_s: lease duration per claim.
        poll_s: idle sleep between empty polls.
        drain: exit once every cell in the queue is terminal (the
            fleet-of-processes mode); False polls forever (the
            long-lived service mode).
        protocol_hook: chaos seam; wraps each cell's protocol.
        stop: external stop event (e.g. the service's shutdown signal).
    """

    def __init__(
        self,
        queue: DurableCellQueue | str,
        *,
        worker_id: str | None = None,
        result_cache: ResultCache | None = None,
        retry: RetryPolicy | None = None,
        lease_s: float = 30.0,
        poll_s: float = 0.1,
        drain: bool = True,
        protocol_hook: ProtocolHook | None = None,
        stop: threading.Event | None = None,
    ) -> None:
        if not isinstance(queue, DurableCellQueue):
            queue = DurableCellQueue(queue)
        self.queue = queue
        self.worker_id = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.result_cache = result_cache
        if retry is None:
            retry = RetryPolicy(
                jitter="full",
                jitter_seed=zlib.crc32(self.worker_id.encode("utf-8")),
            )
        elif retry.jitter == "full" and retry.jitter_seed is None:
            retry = replace(
                retry, jitter_seed=zlib.crc32(self.worker_id.encode("utf-8"))
            )
        self.retry = retry
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.drain = drain
        self.protocol_hook = protocol_hook
        self._stop = stop if stop is not None else threading.Event()

        #: Cells settled by this worker, by source ("simulated"/"cache").
        self.settled: dict[str, int] = {"simulated": 0, "cache": 0, "error": 0}
        #: Leases taken so far (the chaos harness indexes kills by this).
        self.leases = 0

        self._simulators: dict[str, Simulator] = {}
        #: Workload traces of the job being leased from, dropped on a job
        #: switch or an empty queue: built once per job, never kept after.
        self._job_traces: tuple[str | None, dict[str, Any]] = (None, {})

    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Ask the loop to exit after the current cell."""
        self._stop.set()

    def run(self, max_cells: int | None = None) -> int:
        """Pull and execute cells until drained/stopped; returns cells run."""
        self.queue.register_worker(self.worker_id)
        processed = 0
        while not self._stop.is_set():
            try:
                self.queue.reap()
            except Exception:
                pass  # another member's or a waiting job's sweep catches it
            cell = self.queue.lease(self.worker_id, lease_s=self.lease_s)
            if cell is None:
                self._job_traces = (None, {})
                if self.drain and self.queue.unfinished_cells() == 0:
                    break
                self._stop.wait(self.poll_s)
                continue
            self.leases += 1
            self.run_cell(cell)
            processed += 1
            if max_cells is not None and processed >= max_cells:
                break
        self._job_traces = (None, {})
        return processed

    # ------------------------------------------------------------------

    def _simulator(self, sharer_key: str) -> Simulator:
        simulator = self._simulators.get(sharer_key)
        if simulator is None:
            simulator = Simulator(sharer_key=sharer_key)
            self._simulators[sharer_key] = simulator
        return simulator

    def _job_trace(self, cell: LeasedCell, tspec: TraceSpec, built: Any) -> Any:
        """The trace *cell* simulates; *built* is the memo's, if it built one.

        Workload traces are kept for the rest of the cell's job; file
        traces are re-read per cell, since their content can change.
        """
        if self._job_traces[0] != cell.job_id:
            self._job_traces = (cell.job_id, {})
        held = self._job_traces[1]
        key = json.dumps(cell.trace_spec, sort_keys=True)
        trace = held.get(key, built)
        if trace is None:
            trace = tspec.build()
        if tspec.path is None:
            held[key] = trace
        return trace

    @staticmethod
    def _scheme_spec(scheme: dict[str, Any]) -> Any:
        name = scheme["name"]
        options = scheme.get("options") or {}
        return (name, options) if options else name

    def run_cell(self, cell: LeasedCell) -> None:
        """Run one leased cell to settlement (never raises for cell errors)."""
        simulator = self._simulator(cell.sharer_key)
        scheme_spec = self._scheme_spec(cell.scheme)
        trace = cache_id = None
        try:
            tspec = TraceSpec(**cell.trace_spec)
            if self.result_cache is not None:
                # Only a cache lookup needs the fingerprint; the cache's
                # memo also holds the ones its other users computed.
                _, trace_fp, trace = self.result_cache.fingerprints.lookup(tspec)
                cache_id = cache_key(scheme_spec, simulator, trace_fp)
        except Exception as exc:
            # The trace cannot be built: permanent, contained failure.
            self._settle_error(cell, exc)
            return

        if cache_id is not None:
            cached = self.result_cache.get_json(cache_id)
            if cached is not None:
                result_json = {
                    **cached,
                    "scheme": cell.scheme_key,
                    "trace_name": cell.trace_label,
                }
                self._settle_ok(cell, result_json, "cache")
                return
        try:
            trace = self._job_trace(cell, tspec, trace)
        except Exception as exc:
                self._settle_error(cell, exc)
                return

        heartbeat = _Heartbeat(
            self.queue,
            cell,
            self.worker_id,
            lease_s=self.lease_s,
            interval_s=max(0.05, self.lease_s / 4.0),
        )
        heartbeat.start()
        try:
            protocol = build_protocol_for_cell(simulator, scheme_spec, trace)
            if self.protocol_hook is not None:
                protocol = self.protocol_hook(self, cell, protocol) or protocol
            result = simulator.run(trace, protocol, trace_name=cell.trace_label)
            result.scheme = cell.scheme_key
            result_json = result_to_json(result)
        except (KeyboardInterrupt, SystemExit):
            heartbeat.stop()
            raise
        except Exception as exc:
            heartbeat.stop()
            if self.retry.is_retryable(exc):
                # Requeue behind a jittered backoff gate; dead-letters
                # automatically once the attempt budget is spent.
                self.queue.retry_cell(
                    cell.id,
                    self.worker_id,
                    category=type(exc).__name__,
                    message=str(exc),
                    backoff_s=self.retry.delay(cell.attempts),
                )
                self.settled["error"] += 1
            else:
                self._settle_error(cell, exc)
            return
        heartbeat.stop()

        if cache_id is not None:
            try:
                # Cache before settling, so any reassigned twin of this
                # cell finds the result instead of re-simulating it.
                self.result_cache.put_json(cache_id, result_json)
            except Exception:
                pass  # the cache can only skip work, not break a cell
        self._settle_ok(cell, result_json, "simulated")

    def _settle_ok(self, cell: LeasedCell, result_json: Any, source: str) -> None:
        payload = {"status": "ok", "result": result_json, "attempts": cell.attempts}
        if self.queue.settle(cell.id, self.worker_id, payload, source=source):
            self.settled[source] += 1

    def _settle_error(self, cell: LeasedCell, exc: BaseException) -> None:
        self.queue.settle(
            cell.id,
            self.worker_id,
            {
                "status": "error",
                "category": type(exc).__name__,
                "message": str(exc),
                "attempts": cell.attempts,
            },
        )
        self.settled["error"] += 1
