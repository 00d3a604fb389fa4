"""Engine instrumentation: one observer protocol for every layer.

The engine (and its backends) emit a small set of well-defined events
— cell start / retry / finish, cache hit / miss — and every consumer
(the service ``/stats`` endpoint, ``repro run``'s progress lines, tests)
reads the same instrumentation.

Observers must be cheap and must not raise: an event hook fires on the
hot path of a sweep.  :class:`EngineMetrics` is the standard thread-safe
counter implementation; :class:`ObserverGroup` fans events out to
several observers; :class:`OutcomeLog` keeps each cell's outcome.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable


class EngineObserver:
    """No-op base class for engine event hooks.

    Subclass and override the events you care about.  Events fire
    in-process only: a :class:`~repro.engine.backends.ProcessPoolBackend`
    reports ``cell_finished`` from the parent as outcomes arrive, but
    per-attempt ``cell_retry`` events inside pool workers are not
    observable (the worker reports its final attempt count instead).
    """

    def plan_started(self, plan: Any) -> None:
        """A plan is about to execute (after checkpoint restore)."""

    def cell_started(self, task: Any) -> None:
        """A pending cell is about to run (or be dispatched).

        The engine's serial execution announces each pending cell, cache
        hits included, just before it runs; a backend announces each
        cell it computes (the pool and the fleet before dispatch).
        Restored cells are never announced.  Raising here stops the
        sweep: the exception propagates out of ``Engine.run``.
        """

    def cell_retry(
        self, task: Any, failed_attempts: int, error: BaseException, delay: float
    ) -> None:
        """A transient failure is being retried after *delay* seconds."""

    def cell_finished(self, task: Any, outcome: Any) -> None:
        """A cell reached a terminal outcome (ok or contained error).

        Fires once for every resolved cell, however it was resolved;
        ``outcome.source`` says how.
        """

    def cache_hit(self, task: Any) -> None:
        """A cell was served from the content-addressed result cache."""

    def cache_miss(self, task: Any) -> None:
        """A cell's cache lookup came back empty; it will simulate."""

    def plan_finished(self, plan: Any, result: Any) -> None:
        """Every cell of the plan reached a terminal outcome."""


#: The shared no-op instance used when no observer is configured.
NULL_OBSERVER = EngineObserver()


class ObserverGroup(EngineObserver):
    """Fans every event out to each member observer, in order."""

    def __init__(self, observers: Iterable[EngineObserver]) -> None:
        self.observers = list(observers)

    def plan_started(self, plan):
        for observer in self.observers:
            observer.plan_started(plan)

    def cell_started(self, task):
        for observer in self.observers:
            observer.cell_started(task)

    def cell_retry(self, task, failed_attempts, error, delay):
        for observer in self.observers:
            observer.cell_retry(task, failed_attempts, error, delay)

    def cell_finished(self, task, outcome):
        for observer in self.observers:
            observer.cell_finished(task, outcome)

    def cache_hit(self, task):
        for observer in self.observers:
            observer.cache_hit(task)

    def cache_miss(self, task):
        for observer in self.observers:
            observer.cache_miss(task)

    def plan_finished(self, plan, result):
        for observer in self.observers:
            observer.plan_finished(plan, result)


class OutcomeLog(EngineObserver):
    """Keeps every cell's terminal outcome, keyed by its sweep index.

    For callers that need more of a cell than the plan's result holds:
    the original exception, the trace it ran on, or how it resolved.
    """

    def __init__(self) -> None:
        self.outcomes: dict[int, Any] = {}

    def cell_finished(self, task, outcome):
        self.outcomes[task.index] = outcome


class EngineMetrics(EngineObserver):
    """Thread-safe counters fed by engine events.

    The canonical counter names (all default to 0 in snapshots):

    * ``cells_started`` — cells handed to an execution unit;
    * ``cells_ok`` / ``cells_failed`` — simulated cells that succeeded,
      and cells of any source that failed;
    * ``cells_<source>`` — successful cells of every other
      :attr:`~repro.engine.plan.CellOutcome.source`: ``cells_cache``,
      ``cells_checkpoint``, ``cells_coalesced``, ``cells_fabric``;
    * ``cell_retries`` — in-process transient-failure retries;
    * ``cache_hits`` / ``cache_misses`` — engine-level result-cache
      lookups;
    * ``sim_seconds`` — accumulated wall-clock time of finished cells
      (float; in-process execution only).

    Layers may also :meth:`bump` their own counters (the scheduler
    counts submitted and deduplicated jobs); they share the same lock
    and appear in the same :meth:`snapshot`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}

    def bump(self, name: str, amount: float = 1) -> None:
        """Add *amount* to the named counter (thread-safe)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def get(self, name: str) -> float:
        """The current value of one counter (0 when never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, float]:
        """A consistent copy of every counter."""
        with self._lock:
            return dict(self._counters)

    # -- events --------------------------------------------------------

    def cell_started(self, task):
        self.bump("cells_started")

    def cell_retry(self, task, failed_attempts, error, delay):
        self.bump("cell_retries")

    def cell_finished(self, task, outcome):
        source = getattr(outcome, "source", "simulated")
        if getattr(outcome, "status", None) != "ok":
            self.bump("cells_failed")
        else:
            self.bump("cells_ok" if source == "simulated" else f"cells_{source}")
        duration = getattr(outcome, "duration_s", 0.0) or 0.0
        if duration:
            self.bump("sim_seconds", duration)

    def cache_hit(self, task):
        self.bump("cache_hits")

    def cache_miss(self, task):
        self.bump("cache_misses")

