"""Composable policies layered around a single cell execution.

The engine's failure-handling and persistence behaviors are expressed
as small, single-purpose pieces that wrap the one ``run_cell`` unit:

* :class:`RetryPolicy` + :func:`run_with_retry` — **the** retry loop.
  Every execution path (the engine's serial loop, inline and pool
  backends) goes through this one implementation.
* :class:`ManifestRecorder` — **the** checkpoint-manifest write site.
  Completed cells and contained failures are recorded here and only
  here, so the manifest format has exactly one producer.

Result-cache lookup/store and fault injection remain composable at the
engine layer (see :class:`~repro.engine.core.Engine`): caching wraps
``run_cell`` from the outside (hit → skip the cell entirely), while
fault injection enters through scheme factories and flaky traces and
therefore needs no hook of its own — it exercises the retry and
containment policies like any other failure.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.experiment import CellFailure
from repro.errors import ConfigurationError, TransientError
from repro.runner.checkpoint import CheckpointManager

#: Records simulated between consecutive mid-cell checkpoint snapshots.
DEFAULT_CHECKPOINT_EVERY = 10_000


@dataclass
class RetryPolicy:
    """Retry-with-exponential-backoff configuration for one cell.

    Attributes:
        max_attempts: total tries per cell (1 = no retry).
        backoff_base: delay before the first retry, in seconds.
        backoff_factor: multiplier applied per subsequent retry.
        backoff_max: upper bound on any single delay.
        retryable: exception classes worth retrying; anything else is
            permanent.
        sleep: the delay function — injectable so tests (and dry runs)
            never actually block.
        jitter: ``"none"`` keeps the classic deterministic schedule;
            ``"full"`` draws each delay uniformly from ``[0, capped]``
            (AWS-style full jitter), so a whole fleet restarting at
            once spreads its retries instead of thundering-herding a
            shared queue.
        jitter_seed: seeds the jitter RNG; a fixed seed makes the
            jittered schedule exactly reproducible (tests, replay).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    retryable: tuple[type[BaseException], ...] = (TransientError, OSError)
    sleep: Callable[[float], None] = time.sleep
    jitter: str = "none"
    jitter_seed: int | None = None
    _rng: random.Random | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.jitter not in ("none", "full"):
            raise ConfigurationError(
                f"jitter must be 'none' or 'full', got {self.jitter!r}"
            )

    def delay(self, failed_attempts: int) -> float:
        """Backoff delay after *failed_attempts* consecutive failures (>= 1)."""
        raw = self.backoff_base * self.backoff_factor ** (failed_attempts - 1)
        capped = min(raw, self.backoff_max)
        if self.jitter == "full":
            if self._rng is None:
                # Bypass frozen/field bookkeeping: the RNG is a lazily
                # created cache, not part of the policy's identity.
                object.__setattr__(self, "_rng", random.Random(self.jitter_seed))
            return self._rng.uniform(0.0, capped)
        return capped

    def is_retryable(self, exc: BaseException) -> bool:
        """True when *exc* is a transient failure worth another attempt."""
        return isinstance(exc, self.retryable)

    def backoff(self, failed_attempts: int) -> None:
        """Sleep the appropriate delay after a failure."""
        self.sleep(self.delay(failed_attempts))


def run_with_retry(
    attempt: Callable[[], Any],
    retry: RetryPolicy,
    observer: Any = None,
    task: Any = None,
) -> tuple[Any, BaseException | None, int]:
    """The single retry/backoff loop wrapping one cell attempt.

    Calls *attempt* until it succeeds, the failure is permanent, or the
    retry budget is exhausted.  ``KeyboardInterrupt``/``SystemExit``
    always propagate (an interrupted checkpointed run resumes later).

    Returns:
        ``(result, None, attempts_made)`` on success, or
        ``(None, final_exception, failed_attempts)`` once the cell is
        given up on — the caller decides between containment
        (:class:`~repro.core.experiment.CellFailure`) and strict
        re-raise, preserving the original exception object.
    """
    failed_attempts = 0
    while True:
        try:
            return attempt(), None, failed_attempts + 1
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            failed_attempts += 1
            if retry.is_retryable(exc) and failed_attempts < retry.max_attempts:
                # Drawn once so the observer reports the exact (possibly
                # jittered) delay that is actually slept.
                delay = retry.delay(failed_attempts)
                if observer is not None:
                    observer.cell_retry(task, failed_attempts, exc, delay)
                retry.sleep(delay)
                continue
            return None, exc, failed_attempts


class ManifestRecorder:
    """The single site that records progress into a checkpoint manifest.

    Every completed cell and every contained failure — however the
    engine resolved it, for ``repro run`` and service jobs alike —
    funnels through this class, which mutates the manifest dict and
    persists it via :meth:`save` (the one
    :meth:`~repro.runner.checkpoint.CheckpointManager.save_manifest`
    call site in the execution stack).
    """

    def __init__(self, manager: CheckpointManager, manifest: dict[str, Any]) -> None:
        self.manager = manager
        self.manifest = manifest

    def record_completed(
        self, scheme: str, trace_name: str, result_json: dict[str, Any]
    ) -> None:
        """Record one completed cell's JSON result payload and persist.

        The cell is no longer in progress, so its mid-cell binary
        snapshot, if any, is dropped too.
        """
        self.manifest["completed"].setdefault(scheme, {})[trace_name] = result_json
        self.manager.clear_cell_state()
        self.save()

    def record_failure(self, failure: CellFailure) -> None:
        """Record one contained cell failure and persist."""
        self.manifest["failures"].append(
            {
                "scheme": failure.scheme,
                "trace_name": failure.trace_name,
                "category": failure.category,
                "message": failure.message,
                "attempts": failure.attempts,
            }
        )
        self.manager.clear_cell_state()
        self.save()

    def save(self) -> None:
        """Atomically persist the manifest."""
        self.manager.save_manifest(self.manifest)
