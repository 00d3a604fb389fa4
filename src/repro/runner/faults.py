"""Fault injection: deliberately break traces, readers, and protocols.

Robustness claims are only as good as the faults they were tested
against.  :class:`FaultInjector` manufactures every fault class the
engine promises to contain:

* **corrupt trace records** — bit-flipped addresses, bogus flag
  letters, garbage lines in text traces; overwritten type codes and
  truncated headers/bodies in binary traces (which must surface as
  :class:`~repro.errors.TraceFormatError`);
* **flaky readers** — iterables that raise
  :class:`~repro.errors.TransientError` partway through the first N
  passes and then recover (which the retry layer must absorb);
* **illegal protocol state** — a second dirty copy of a block planted
  behind the protocol's back (which the
  :class:`~repro.core.invariants.InvariantChecker` must detect as an
  :class:`~repro.errors.InvariantViolation`).

Everything is deterministic under a seed, so fault-containment tests
are exactly reproducible.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import ConfigurationError, TransientError
from repro.memory.line import LineState
from repro.protocols.base import CoherenceProtocol
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace

#: Text-trace corruption modes understood by :meth:`FaultInjector.corrupt_text_trace`.
TEXT_CORRUPTION_MODES = ("bad-address", "bogus-flag", "garbage", "bad-type")


class KillPoint:
    """A process-kill simulator for checkpoint/resume tests.

    ``armed`` is deliberately *class-level* state: it is not pickled
    into checkpoints, so a snapshot taken before the "kill" restores
    into whatever armed/disarmed state the resuming process sets —
    exactly like a real process death and restart.
    """

    armed: bool = False

    @classmethod
    def arm(cls) -> None:
        cls.armed = True

    @classmethod
    def disarm(cls) -> None:
        cls.armed = False

    @classmethod
    def check(cls) -> None:
        """Raise KeyboardInterrupt (simulated SIGINT) when armed."""
        if cls.armed:
            raise KeyboardInterrupt("injected process kill")


class FlakyReader:
    """A record iterable that fails transiently, then recovers.

    The first ``fail_times`` iteration passes raise
    :class:`~repro.errors.TransientError` after ``fail_after`` records;
    subsequent passes yield the stream cleanly.  ``len`` always works —
    only *streaming* is flaky, like an NFS hiccup mid-read.
    """

    def __init__(
        self,
        records: Iterable[TraceRecord],
        fail_after: int,
        fail_times: int = 1,
    ) -> None:
        if fail_after < 0:
            raise ConfigurationError(f"fail_after must be >= 0, got {fail_after}")
        self._records = list(records)
        self.fail_after = fail_after
        self.failures_left = fail_times
        self.passes = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        self.passes += 1
        flaky = self.failures_left > 0
        if flaky:
            self.failures_left -= 1
        for position, record in enumerate(self._records):
            if flaky and position == self.fail_after:
                raise TransientError(
                    f"injected transient read failure at record {position}"
                )
            yield record


class FlakyTrace(Trace):
    """A :class:`Trace` whose record stream is a :class:`FlakyReader`.

    Metadata access (``pids``/``cpus``/``len``) never trips the fault —
    only full iteration does, mirroring a reader that can stat a file
    but hiccups while streaming it.
    """

    def __init__(self, base: Trace, fail_after: int, fail_times: int = 1) -> None:
        self.name = base.name
        self.records = FlakyReader(base.records, fail_after, fail_times)
        self.description = base.description

    @property
    def pids(self) -> list[int]:
        return sorted({record.pid for record in self.records._records})

    @property
    def cpus(self) -> list[int]:
        return sorted({record.cpu for record in self.records._records})


class SaboteurProtocol:
    """Wraps a protocol and injects a fault after N data references.

    Modes:

    * ``"illegal-state"`` — silently plant a second dirty copy of the
      triggering block, so the next invariant check fails;
    * ``"kill"`` — consult :class:`KillPoint` and die (simulated
      process kill) if armed;
    * ``"transient"`` — raise :class:`~repro.errors.TransientError`
      once per arming of ``failures_left``.

    Eviction modes (the finite-capacity bug classes; they arm at the
    trigger and corrupt the machine's replacement behaviour):

    * ``"lru-mru"`` — from the trigger on, reverse every finite set's
      recency order before each reference, so replacement evicts the
      most- instead of least-recently-used line (coherent but wrong:
      only a differential against the clean run can catch it);
    * ``"drop-writeback"`` — at the first opportunity after the
      trigger, evict a dirty line without writing it back (directory
      told the copy is simply gone), leaving memory stale — the
      value-coherence oracle's eviction audit must catch it;
    * ``"stale-directory"`` — from the trigger on, evict a clean
      cached line at every reference while leaving its directory entry
      untouched, as if eviction notifications were systematically lost
      — the directory-agreement invariant (or, for snoopy schemes with
      no directory, the stream of spurious re-fetch misses in the
      differential) must catch it.

    The wrapper is pickleable (it holds only the inner protocol, ints
    and strings), so it survives checkpoint snapshots.
    """

    MODES = (
        "illegal-state",
        "kill",
        "transient",
        "lru-mru",
        "drop-writeback",
        "stale-directory",
    )

    #: Modes that corrupt finite-capacity eviction logic.
    EVICTION_MODES = ("lru-mru", "drop-writeback", "stale-directory")

    def __init__(
        self,
        inner: CoherenceProtocol,
        trigger_after: int,
        mode: str = "illegal-state",
        failures_left: int = 1,
    ) -> None:
        if mode not in self.MODES:
            raise ConfigurationError(
                f"mode must be one of {self.MODES}, got {mode!r}"
            )
        self.inner = inner
        self.trigger_after = trigger_after
        self.mode = mode
        self.failures_left = failures_left
        self.refs_seen = 0
        self.fired = False

    # Protocol-shaped delegation: anything not overridden goes inward.
    # Dunder probes (and pickle's pre-__init__ __setstate__ lookup, when
    # self.inner does not exist yet) must fall through to AttributeError.
    def __getattr__(self, attribute):
        if attribute.startswith("__") or "inner" not in self.__dict__:
            raise AttributeError(attribute)
        return getattr(self.inner, attribute)

    def _maybe_trigger(self, block: int) -> None:
        self.refs_seen += 1
        if self.mode in self.EVICTION_MODES:
            if self.refs_seen >= self.trigger_after:
                self._sabotage_eviction(block)
            return
        if self.refs_seen != self.trigger_after:
            return
        if self.mode == "kill":
            KillPoint.check()
        elif self.mode == "transient":
            if self.failures_left > 0:
                self.failures_left -= 1
                raise TransientError(
                    f"injected transient protocol failure at ref {self.refs_seen}"
                )
        elif self.mode == "illegal-state":
            inject_illegal_dirty_copies(self.inner, block)

    # -- eviction-logic corruption (finite-capacity bug classes) -------

    def _sabotage_eviction(self, accessed: int) -> None:
        from repro.memory.cache import FiniteCache

        if self.mode == "lru-mru":
            # Continuous: keep every finite set in reversed recency
            # order, turning LRU replacement into MRU replacement.
            for cache in self.inner._caches:
                if isinstance(cache, FiniteCache):
                    for line_set in cache._sets:
                        items = list(line_set.items())
                        line_set.clear()
                        line_set.update(reversed(items))
            return
        if self.mode == "stale-directory":
            # Continuous: every eviction notification is "lost".  A
            # single silent eviction self-repairs on the victim's next
            # miss, so a systematic fault is needed for the stale
            # window to be observable.
            victim = self._find_victim(accessed, want_dirty=False)
            if victim is not None:
                cache_index, block = victim
                self.fired = True
                self.inner._caches[cache_index].evict(block)
            return
        if self.fired:
            return
        victim = self._find_victim(accessed, want_dirty=True)
        if victim is None:
            return  # fire at the first reference with a suitable victim
        cache_index, block = victim
        self.fired = True
        self.inner._caches[cache_index].evict(block)
        # "drop-writeback": the directory learns the copy is gone
        # (structurally consistent) but the dirty data never reached
        # memory.
        directory = getattr(self.inner, "directory", None)
        if directory is not None:
            directory.note_invalidated(block, cache_index)

    def _find_victim(self, accessed: int, want_dirty: bool):
        """A (cache, block) pair to evict: dirty or clean, not *accessed*."""
        for cache_index, cache in enumerate(self.inner._caches):
            for block, state in self.inner.cache_contents(cache_index).items():
                if block == accessed:
                    continue
                if bool(getattr(state, "is_dirty", False)) == want_dirty:
                    return cache_index, block
        return None

    def on_read(self, cache: int, block: int, first_ref: bool):
        result = self.inner.on_read(cache, block, first_ref)
        self._maybe_trigger(block)
        return result

    def on_write(self, cache: int, block: int, first_ref: bool):
        result = self.inner.on_write(cache, block, first_ref)
        self._maybe_trigger(block)
        return result


class ProcessKiller:
    """Wraps a protocol and SIGKILLs *its own process* after N data refs.

    The real-death sibling of :class:`SaboteurProtocol`'s ``"kill"``
    mode: where that raises a catchable ``KeyboardInterrupt``, this one
    sends an uncatchable ``SIGKILL`` to ``os.getpid()`` — no atexit, no
    finally blocks, no flushing — exactly what a fabric worker's sudden
    death looks like to the rest of the fleet.  Deterministic: the kill
    lands after precisely ``kill_after`` completed data references, so
    a chaos scenario dies at the same record every run.
    """

    def __init__(self, inner: CoherenceProtocol, kill_after: int) -> None:
        if kill_after < 1:
            raise ConfigurationError(
                f"kill_after must be >= 1, got {kill_after}"
            )
        self.inner = inner
        self.kill_after = kill_after
        self.refs_seen = 0

    def __getattr__(self, attribute):
        if attribute.startswith("__") or "inner" not in self.__dict__:
            raise AttributeError(attribute)
        return getattr(self.inner, attribute)

    def _maybe_kill(self) -> None:
        self.refs_seen += 1
        if self.refs_seen == self.kill_after:
            import os
            import signal

            os.kill(os.getpid(), signal.SIGKILL)

    def on_read(self, cache: int, block: int, first_ref: bool):
        result = self.inner.on_read(cache, block, first_ref)
        self._maybe_kill()
        return result

    def on_write(self, cache: int, block: int, first_ref: bool):
        result = self.inner.on_write(cache, block, first_ref)
        self._maybe_kill()
        return result


def inject_illegal_dirty_copies(
    protocol: CoherenceProtocol, block: int, caches: Sequence[int] = (0, 1)
) -> None:
    """Plant dirty copies of *block* behind the protocol's back.

    Two dirty copies violate single-writer for every protocol; for WTI
    even one violates write-through purity.  The protocol's directory is
    deliberately left stale, so directory-agreement checks fire too.
    """
    for cache in caches:
        if cache < protocol.num_caches:
            protocol._caches[cache].put(block, LineState.DIRTY)


class FaultInjector:
    """Deterministic manufacturer of corrupt traces and flaky readers.

    Args:
        seed: RNG seed; equal seeds produce identical corruption.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    # -- record-level corruption ---------------------------------------

    def bit_flip_address(self, record: TraceRecord, bit: int | None = None) -> TraceRecord:
        """A copy of *record* with one address bit flipped (silent corruption)."""
        if bit is None:
            bit = self._rng.randrange(0, 32)
        from dataclasses import replace

        return replace(record, address=record.address ^ (1 << bit))

    # -- text-trace corruption -----------------------------------------

    def corrupt_text_trace(
        self,
        path: str | Path,
        mode: str = "garbage",
        line_index: int | None = None,
    ) -> int:
        """Corrupt one record line of a text trace file in place.

        Args:
            mode: one of :data:`TEXT_CORRUPTION_MODES`.
            line_index: 0-based index among *record* lines (comments and
                blanks are never touched); random when omitted.

        Returns:
            The 1-based file line number that was corrupted.
        """
        if mode not in TEXT_CORRUPTION_MODES:
            raise ConfigurationError(
                f"mode must be one of {TEXT_CORRUPTION_MODES}, got {mode!r}"
            )
        file_path = Path(path)
        lines = file_path.read_text("ascii").splitlines()
        record_lines = [
            number
            for number, line in enumerate(lines)
            if line.strip() and not line.strip().startswith("#")
        ]
        if not record_lines:
            raise ConfigurationError(f"{path} contains no record lines to corrupt")
        if line_index is None:
            target = self._rng.choice(record_lines)
        else:
            target = record_lines[line_index]
        lines[target] = self._corrupt_line(lines[target], mode)
        file_path.write_text("\n".join(lines) + "\n", "ascii")
        return target + 1

    def _corrupt_line(self, line: str, mode: str) -> str:
        fields = line.split()
        if mode == "garbage":
            return "!! corrupted record !!"
        if mode == "bad-address":
            fields[3] = "0xZZZZ"
        elif mode == "bad-type":
            fields[2] = "q"
        elif mode == "bogus-flag":
            fields = fields[:4] + ["x"]
        return " ".join(fields)

    # -- binary-trace corruption ---------------------------------------

    def truncate_binary_trace(self, path: str | Path, keep_bytes: int) -> None:
        """Cut a binary trace file down to its first *keep_bytes* bytes.

        Truncating inside the header or mid-record must surface as
        :class:`~repro.errors.TraceFormatError` on read.
        """
        file_path = Path(path)
        data = file_path.read_bytes()
        file_path.write_bytes(data[:keep_bytes])

    def corrupt_binary_type_code(self, path: str | Path, record_index: int = 0) -> None:
        """Overwrite one packed record's reference-type byte with 0xFF."""
        from repro.trace.io import _HEADER, _RECORD

        file_path = Path(path)
        data = bytearray(file_path.read_bytes())
        # Type code is the 5th byte of the <HHBBHQ> record layout.
        offset = _HEADER.size + record_index * _RECORD.size + 4
        if offset >= len(data):
            raise ConfigurationError(
                f"record {record_index} is out of range for {path}"
            )
        data[offset] = 0xFF
        file_path.write_bytes(bytes(data))

    # -- streaming and protocol faults ---------------------------------

    def flaky_trace(
        self, trace: Trace, fail_after: int | None = None, fail_times: int = 1
    ) -> FlakyTrace:
        """Wrap *trace* so streaming fails transiently *fail_times* times."""
        if fail_after is None:
            fail_after = self._rng.randrange(0, max(1, len(trace)))
        return FlakyTrace(trace, fail_after=fail_after, fail_times=fail_times)

    def saboteur(
        self,
        inner: CoherenceProtocol,
        trigger_after: int | None = None,
        mode: str = "illegal-state",
        failures_left: int = 1,
    ) -> SaboteurProtocol:
        """Wrap a protocol instance to misbehave after N data references."""
        if trigger_after is None:
            trigger_after = self._rng.randrange(1, 1000)
        return SaboteurProtocol(
            inner, trigger_after, mode=mode, failures_left=failures_left
        )

    def kill_plan(
        self, workers: int, max_lease: int = 3, max_refs: int = 500
    ) -> tuple[int, int, int]:
        """Pick a deterministic (worker, lease index, ref count) kill point.

        The fabric chaos harness uses this to decide *which* worker of a
        fleet dies, on which of its leases, and after how many completed
        data references — all drawn from the injector's seeded RNG, so a
        chaos scenario is exactly reproducible from its seed.
        """
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        return (
            self._rng.randrange(0, workers),
            self._rng.randrange(0, max_lease),
            self._rng.randrange(1, max_refs + 1),
        )
