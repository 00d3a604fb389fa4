"""Reference filters used by the paper's methodology.

* :func:`exclude_lock_spins` removes the repeated "test" reads of
  test-and-test-and-set spin loops — the Section 5.2 experiment
  ("we ran a set of experiments excluding all the tests on locks").
* :func:`relabel_sharers_by_process` / :func:`relabel_sharers_by_cpu`
  implement the paper's two sharing views (Section 4.4): by default the
  paper considers a block shared only if *processes* share it, not
  processors, to factor out migration-induced sharing.  The simulator
  keys caches on a single integer ``sharer`` id; these helpers rewrite
  records so that id is the pid or the cpu respectively.
* :func:`split_user_system` separates OS activity from user activity.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.trace.columnar import FLAG_LOCK, FLAG_SPIN, ColumnarTrace, columnar_trace
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace


def exclude_lock_spins(
    trace: Trace | ColumnarTrace | Iterable[TraceRecord],
) -> ColumnarTrace:
    """Drop spin-lock *test* reads (Section 5.2's lock-exclusion experiment).

    Only the repeated test reads while a lock is held are removed; the
    test-and-set write and the first (successful) test read are ordinary
    synchronization traffic and remain in the trace.  The filter runs on
    columns (a record stream is packed first) and returns the kept
    references as a :class:`~repro.trace.columnar.ColumnarTrace`, which
    iterates as records.
    """
    return columnar_trace(trace).drop_flagged(FLAG_SPIN)


def exclude_all_lock_refs(
    trace: Trace | ColumnarTrace | Iterable[TraceRecord],
) -> ColumnarTrace:
    """Drop every lock-related reference (a stronger variant of §5.2)."""
    return columnar_trace(trace).drop_flagged(FLAG_LOCK)


def relabel_sharers_by_process(records: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
    """Attribute each reference to a cache keyed by process id.

    After this relabeling the ``cpu`` field equals the ``pid`` field, so
    a simulator keying caches on ``cpu`` measures *process* sharing —
    the paper's default view, which excludes migration-induced sharing.
    """
    return (record.with_cpu(record.pid) for record in records)


def relabel_sharers_by_cpu(records: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
    """Identity relabeling: caches keyed by physical processor.

    Provided for symmetry with :func:`relabel_sharers_by_process`; the
    paper reports that the two views give similar numbers because its
    traces contain little process migration.
    """
    return iter(records)


def split_user_system(trace: Trace) -> tuple[Trace, Trace]:
    """Split a trace into its user-mode and system-mode components."""
    user = trace.filtered(lambda record: not record.system, name=f"{trace.name}-user")
    system = trace.filtered(lambda record: record.system, name=f"{trace.name}-sys")
    return user, system
