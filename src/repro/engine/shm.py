"""Shared-memory trace transport: each trace is copied in once, then named.

The pooled backend's dominant cost used to be serialization: every
cell dispatch re-pickled its whole trace (hundreds of kilobytes) into
the worker pipe, so adding workers added IPC instead of throughput.
A :class:`TraceArena` removes the trace from the dispatch path
entirely.  Cell descriptors name a trace by index into a small
picklable descriptor, and the descriptor names, per trace, the
:class:`multiprocessing.shared_memory.SharedMemory` segment and the
offset and item format of each of its five columns — a few bytes on
the pipe regardless of trace length.

**Copy once.**  :meth:`TraceArena.create` moves every
:class:`~repro.trace.columnar.ColumnarTrace` that no live segment holds
yet into one fresh segment, one column at a time: after each column is
copied, the trace's attribute is pointed at a read-only ``memoryview``
over the segment, so the parent's own array is freed as soon as it has
been copied and the parent holds each trace's columns exactly once.  A
trace that a live segment already holds is named by (segment, offsets)
with no copy, so a warm pass or a later sweep over the same traces
copies nothing.  Moved traces behave as before in the parent (the
simulator, fingerprinting and pickling all accept ``memoryview``
columns), except that their columns can no longer be assigned to.

Worker-side reconstruction is zero-copy: each column comes back as a
``memoryview`` over the mapped segment cast to the format it was
copied in with (a generated trace's ``B`` cpu and pid and ``I``
addresses stay one and four bytes wide).  Only the simulator's
per-sharer data view — a compressed copy of the data references — is
materialized, once per (worker, trace) for as long as the worker keeps
the segment attached.

Lifecycle:

* a segment lives as long as the traces it holds, not as long as a
  sweep: every column view the parent points a trace at carries a
  ``weakref.finalize``, and when the last of a segment's views is
  garbage-collected the parent unlinks the segment's name and unmaps
  it.  (``SharedMemory.close()`` raises ``BufferError`` while any view
  of the segment is alive, which is why release follows the views.)
  Names still live when the interpreter exits are unlinked then;
* on Linux an unlinked segment stays readable for workers that already
  mapped it, so a warm pool can finish in-flight batches safely;
* workers attach lazily by segment name when a batch first names a
  segment (see :func:`attach_arena`), and drop every attachment the
  current batch does not name, so a long-lived worker holds only the
  segments its current batch reads;
* CPython < 3.13 registers a segment with the resource tracker even on
  attach, which would make the tracker unlink a segment it does not
  own when the worker exits — :func:`attach_arena` suppresses that
  registration to restore create-side-owns semantics;
* :meth:`TraceArena.dispose` releases early: in the creating process it
  unlinks the segments the arena names now (their traces keep working
  over the still-mapped views and are copied afresh by the next sweep);
  in a worker it detaches them.

When ``/dev/shm`` is unavailable (or segment creation fails for any
reason), :meth:`TraceArena.create` returns None and the backend falls
back to pickling traces — the arena is an optimization, not a
requirement.
"""

from __future__ import annotations

import atexit
import functools
import os
import struct
import weakref
from typing import Any, Sequence

from repro.trace.columnar import COLUMNS, ColumnarTrace, column_format

#: Every column starts on a multiple of this, so any cast is aligned.
_ALIGN = 8

#: A trace's layout: column name -> (byte offset, item format).
Layout = dict[str, tuple[int, str]]


def _aligned(size: int) -> int:
    return (size + _ALIGN - 1) & ~(_ALIGN - 1)


@functools.cache
def _shared_memory() -> type:
    """``SharedMemory`` whose ``close()`` tolerates live views.

    ``SharedMemory.close()`` raises ``BufferError`` while any view of the
    segment is alive, and its ``__del__`` repeats the call.  A view can
    outlive the handle — a slice of a column kept past its trace, or a
    trace still alive at interpreter exit — so this close leaves the
    mapping to the views, which unmap it when the last one goes.
    """
    from multiprocessing import shared_memory

    class SharedMemory(shared_memory.SharedMemory):
        def close(self) -> None:
            try:
                super().close()
            except BufferError:
                pass

    return SharedMemory


class _Segment:
    """A segment this process created, and the column views that map it."""

    __slots__ = ("shm", "pid", "finalizers")

    def __init__(self, shm: Any) -> None:
        self.shm = shm
        # A forked pool worker inherits this object; only the creating
        # process may unlink the name.
        self.pid = os.getpid()
        self.finalizers: list[Any] = []
        _LIVE[shm.name] = self

    def adopt(self, trace: ColumnarTrace, layout: Layout) -> None:
        """Copy *trace*'s columns in at *layout*, re-pointing each as it lands."""
        buf = self.shm.buf
        n = len(trace)
        finalizers = []
        for column in COLUMNS:
            start, fmt = layout[column]
            end = start + n * struct.calcsize(fmt)
            # Raises TypeError or ValueError for a column that is not a
            # contiguous buffer of n items of its format.
            buf[start:end] = memoryview(getattr(trace, column)).cast("B")
            view = buf[start:end].cast(fmt).toreadonly()
            setattr(trace, column, view)
            finalizer = weakref.finalize(
                view, self._view_died, id(view) if column == "cpu" else None
            )
            finalizer.atexit = False  # exit unlinks by name instead
            finalizers.append(finalizer)
            self.finalizers.append(finalizer)
        _HELD[id(trace.cpu)] = (self, layout, tuple(finalizers))

    def _view_died(self, held_key: int | None) -> None:
        # Finalizers may fire on any thread, so the test is whether any
        # view is still alive, not a shared counter.
        if held_key is not None:
            _HELD.pop(held_key, None)
        if not any(finalizer.alive for finalizer in self.finalizers):
            self.release()
            self.shm.close()

    def release(self) -> None:
        """Unlink the name; views that map the segment keep working."""
        # The pop is atomic, so of any threads releasing at once only
        # one unlinks.
        if os.getpid() == self.pid and _LIVE.pop(self.shm.name, None) is not None:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass


#: Live segments this process created, by name.
_LIVE: dict[str, _Segment] = {}

#: id(cpu view) -> (segment, layout, one finalizer per column view) for
#: every trace moved into a segment; entries leave with their cpu view.
_HELD: dict[int, tuple[_Segment, Layout, tuple[Any, ...]]] = {}


def _held_by(trace: ColumnarTrace) -> tuple[str, Layout] | None:
    """(segment name, layout) of the live segment holding *trace*, if any.

    A trace is held only while every one of its columns is still the
    view it was pointed at, so a column reassigned since is copied again.
    """
    held = _HELD.get(id(trace.cpu))
    if held is None:
        return None
    segment, layout, finalizers = held
    if _LIVE.get(segment.shm.name) is not segment:
        return None  # released early (dispose)
    for column, finalizer in zip(COLUMNS, finalizers):
        alive = finalizer.peek()
        if alive is None or alive[0] is not getattr(trace, column):
            return None
    return segment.shm.name, layout


@atexit.register
def _unlink_live_segments() -> None:
    """Remove every name this process still holds (interpreter exit)."""
    for segment in list(_LIVE.values()):
        segment.release()


class _Mapping:
    """One mapped segment and the traces rebuilt from it (memoized)."""

    __slots__ = ("shm", "traces")

    def __init__(self, shm: Any) -> None:
        self.shm = shm
        self.traces: dict[tuple[int, str, str], ColumnarTrace] = {}

    def trace(self, entry: dict[str, Any]) -> ColumnarTrace:
        """The trace *entry* describes, reconstructed zero-copy."""
        columns = entry["columns"]
        key = (columns["cpu"], entry["name"], entry["description"])
        trace = self.traces.get(key)
        if trace is None:
            n = entry["length"]
            buf = self.shm.buf

            def view(column: str) -> memoryview:
                start, fmt = columns[column]
                return buf[start : start + n * struct.calcsize(fmt)].cast(fmt)

            trace = ColumnarTrace(
                entry["name"],
                *(view(column) for column in COLUMNS),
                description=entry["description"],
            )
            self.traces[key] = trace
        return trace

    def detach(self) -> None:
        self.traces.clear()
        self.shm.close()


class TraceArena:
    """Where a sweep's traces live in shared memory.

    Build with :meth:`create` in the parent; ship :attr:`descriptor`
    (or one batch's part of it, :meth:`descriptor_for`) to workers;
    workers rebuild traces with :func:`attach_arena` /
    :meth:`trace_from`.  The descriptor is ``{"traces": {index:
    entry}}`` where each entry names the trace's segment, length,
    each column's ``(offset, format)``, name and description.
    """

    def __init__(
        self, descriptor: dict[str, Any], mappings: dict[str, _Mapping], owner: bool
    ) -> None:
        self.descriptor = descriptor
        self._mappings = mappings
        self._owner = owner

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, traces: Sequence[ColumnarTrace]) -> "TraceArena | None":
        """Name *traces* in shared memory, moving in those not held yet.

        Returns None if a segment is needed and cannot be made.  The new
        segment's layout is one contiguous run per trace, its five
        columns in constructor order, each in its own item format and
        padded to 8 bytes so every cast is aligned: a generated trace
        takes 8 bytes per reference plus at most 8 bytes per column.
        """
        entries: dict[int, dict[str, Any]] = {}
        moves: list[tuple[ColumnarTrace, dict[str, Any]]] = []
        size = 0
        for index, trace in enumerate(traces):
            n = len(trace)
            held = _held_by(trace)
            segment_name, layout = held if held is not None else (None, {})
            entries[index] = entry = {
                "segment": segment_name,
                "name": trace.name,
                "description": trace.description,
                "length": n,
                "columns": layout,
            }
            if held is None:
                for column in COLUMNS:
                    fmt = column_format(getattr(trace, column))
                    layout[column] = (size, fmt)
                    size = _aligned(size + n * struct.calcsize(fmt))
                moves.append((trace, entry))

        if moves:
            try:
                segment = _Segment(_shared_memory()(create=True, size=max(1, size)))
            except (ImportError, OSError, ValueError):
                return None  # no /dev/shm (or too small): fall back to pickle
            try:
                for trace, entry in moves:
                    segment.adopt(trace, entry["columns"])
                    entry["segment"] = segment.shm.name
            except (TypeError, ValueError):
                # A column that is not a contiguous buffer of its format.
                # Columns already moved stay valid over the still-mapped
                # views; without a name the sweep pickles them instead.
                segment.release()
                return None
        descriptor = {"traces": entries}
        names = {entry["segment"] for entry in entries.values()}
        mappings = {name: _Mapping(_LIVE[name].shm) for name in names}
        return cls(descriptor, mappings, True)

    def descriptor_for(self, indices: Any) -> dict[str, Any]:
        """The descriptor narrowed to the traces at *indices* (one batch's)."""
        traces = self.descriptor["traces"]
        return {"traces": {index: traces[index] for index in indices}}

    def dispose(self) -> None:
        """Release now instead of when the traces die.

        The creating process unlinks every segment the arena names (its
        traces keep working, and the next sweep copies them afresh); a
        worker detaches them.
        """
        for name, mapping in self._mappings.items():
            if self._owner:
                mapping.traces.clear()
                segment = _LIVE.get(name)
                if segment is not None:
                    segment.release()
            elif _ATTACHED.get(name) is mapping:
                del _ATTACHED[name]
                mapping.detach()
        self._mappings = {}
        if _CURRENT and _CURRENT[0] is self:
            _CURRENT.clear()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def trace_from(self, index: int) -> ColumnarTrace:
        """The *index*-th trace, reconstructed zero-copy (memoized)."""
        entry = self.descriptor["traces"][index]
        return self._mappings[entry["segment"]].trace(entry)


#: The worker's attachments by segment name: only what its current
#: batch names.
_ATTACHED: dict[str, _Mapping] = {}

#: The arena the last :func:`attach_arena` call returned.
_CURRENT: list[TraceArena] = []


def _attach(name: str) -> Any:
    """Map the segment *name* without registering it with the tracker."""
    from multiprocessing import resource_tracker

    # CPython < 3.13 registers even non-owning attachments with the
    # resource tracker, which would unlink the parent's segment when
    # this worker exits.  Unregistering after the fact is racy when
    # several pool workers attach the same segment (the shared tracker
    # process sees more removes than adds and logs KeyErrors), so
    # suppress the registration itself for the duration of the attach:
    # the creator owns the name.
    original_register = resource_tracker.register

    def register_except_shm(name_: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original_register(name_, rtype)

    resource_tracker.register = register_except_shm
    try:
        return _shared_memory()(name=name, create=False)
    finally:
        resource_tracker.register = original_register


def attach_arena(descriptor: dict[str, Any]) -> TraceArena:
    """Attach the segments *descriptor* names in this process.

    Drops every attachment the descriptor does not name first, so
    worker memory stays bounded at one batch's segments, and keeps the
    ones it does name (with their rebuilt traces) across calls.  Raises
    whatever ``SharedMemory`` raises when a segment no longer exists —
    callers treat that as a dead cell input and fall back.
    """
    if _CURRENT and _CURRENT[0].descriptor == descriptor:
        return _CURRENT[0]
    names = {entry["segment"] for entry in descriptor["traces"].values()}
    for stale in [name for name in _ATTACHED if name not in names]:
        _ATTACHED.pop(stale).detach()
    for name in names - _ATTACHED.keys():
        _ATTACHED[name] = _Mapping(_attach(name))
    arena = TraceArena(descriptor, {name: _ATTACHED[name] for name in names}, False)
    _CURRENT[:] = [arena]
    return arena


def detach_all() -> None:
    """Drop every attachment (tests and worker teardown)."""
    _CURRENT.clear()
    for name in list(_ATTACHED):
        _ATTACHED.pop(name).detach()
