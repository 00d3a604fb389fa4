"""Per-block transition tables, filled by the object model.

With an unbounded directory, what a protocol does on a reference to
block b depends only on b's state: infinite caches (Section 4) keep
blocks independent.  So every stock protocol runs as a table:
(state, cache, read/write, first reference) -> (next state, outcome).
No one writes the table.  On a miss, a *representative* takes the
reference through its own ``on_read``/``on_write``: a blank copy of the
protocol (same type, machine size and options, infinite caches)
holding only block 0, in that state.  Its
:meth:`~repro.protocols.base.CoherenceProtocol.snapshot_block` names
the next state.  Every entry is thus the object model's own transition
(the guard -> update framing of Meunier et al.).

Finite caches couple blocks only through set replacement.  The
representative's caches record each put, touch and evict of block 0,
and an LRU layer of one dict per cache set (insertion order is recency,
as in :class:`~repro.memory.cache.FiniteCache`) replays them on the
real sets.  A displaced line takes the table's evict action,
(state, cache) -> (next state, ops), filled through the protocol's one
victim hook (``_evicted``).  Its ops join the referencing outcome as
one memoized :class:`ProtocolResult`, at the place the protocol's
install left them, so bus-transaction counts stay exact and the
result's dicts keep the object model's key order.

One table per (type, machine size, options) serves infinite caches and
every uniform geometry, and tables live in a per-process memo of at
most :data:`MEMO_TABLES`.  The exhaustive state-space search
(:mod:`repro.core.statespace`) walks a table of its own, outside the
memo.  The tables take exact stock protocol types only, on caches that
are all infinite or all finite of one geometry, without a
directory-entry bound.  Anything else (a saboteur, a
subclass, a wrapper, mixed geometry, ``dir_capacity``), and invariant
checking, runs the generic loop.  So does a protocol holding a block
its context has never seen.  Segments hand state over through the
per-block snapshot: a session reads every block's snapshot in and
writes every block's snapshot back, so checkpoint windows and chunked
runs leave the protocol exactly as the object model would.
"""

from __future__ import annotations

import copy
import os
import pickle
import threading
from collections import OrderedDict, defaultdict
from dataclasses import replace
from functools import partial
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.memory.cache import FiniteCache, InfiniteCache
from repro.protocols.events import ProtocolResult
from repro.protocols.registry import available_protocols, protocol_class
from repro.trace.columnar import ColumnarTrace

#: Most tables one process keeps; the least recently used goes first.
MEMO_TABLES = 64

_STOCK = frozenset(protocol_class(name) for name in available_protocols())

# What a recorded cache call does to the line's place in its set.  An
# install also carries, above these two bits, where in the outcome's
# ops a victim's ops go: ``INSTALL | position << 2``.
REFRESH, INSTALL, DROP = 0, 1, 2

#: Columnar type codes (read 1, write 2) as their move-key offsets.
_CODE_OFFSETS = bytes.maketrans(b"\x01\x02", b"\x02\x04")


class _RecordingCache(InfiniteCache):
    """A representative's cache: logs each call on a line while ``log`` is set."""

    log: list | None = None

    def put(self, block: int, state: Any) -> None:
        if self.log is not None:
            self.log.append(("put", self))
        return super().put(block, state)

    def touch(self, block: int) -> None:
        if self.log is not None:
            self.log.append(("touch", self))

    def evict(self, block: int) -> Any:
        if self.log is not None:
            self.log.append(("evict", self))
        return super().evict(block)


class TransitionTable:
    """One protocol configuration's per-block automaton, filled lazily.

    *clone* returns a blank copy of the protocol, which a representative
    starts from.  A state is a small int, its index in :attr:`snapshots`.
    Each state has a row of moves indexed by the action ``(cache << 2)
    + (code << 1) + first`` (a columnar type code, read 1 or write 2,
    and a first-reference bit), and a row of evict actions indexed by
    cache.
    A move is ``(next state, outcome index, effects)``: *effects* lists
    the ``(cache, REFRESH | INSTALL | DROP)`` changes to the block's
    lines, in the order the protocol made them.  An empty slot is None.
    """

    def __init__(self, clone: Callable[[], Any]) -> None:
        self._clone = clone
        blank = clone()
        self.num_caches = blank.num_caches
        self.snapshots: list[tuple] = []
        self.moves: list[list] = []
        self.evictions: list[list] = []
        self._ids: dict[tuple, int] = {}
        self.outcomes: list[ProtocolResult] = []
        self._outcome_ids: dict[ProtocolResult, int] = {}
        self._merged: dict[tuple, int] = {}
        self._effects: dict[tuple, tuple] = {}  # one copy of each effect list
        self._lock = threading.RLock()
        self.state(blank.snapshot_block(0))  # state 0: the untouched block

    def state(self, snapshot: tuple) -> int:
        """The state whose snapshot is *snapshot*, registering a new one."""
        with self._lock:
            index = self._ids.get(snapshot)
            if index is None:
                # Rows first: a fork between these lines leaves only
                # spare empty rows, never a state without its rows.
                self.moves.append([None] * (4 * self.num_caches + 2))
                self.evictions.append([None] * self.num_caches)
                self.snapshots.append(snapshot)
                index = self._ids[snapshot] = len(self.snapshots) - 1
        return index

    def representative(self, state: int) -> Any:
        """A fresh protocol holding only block 0, in *state*."""
        protocol = self._clone()
        protocol.restore_block(0, self.snapshots[state])
        return protocol

    def _outcome(self, outcome: ProtocolResult) -> int:
        index = self._outcome_ids.get(outcome)
        if index is None:
            self.outcomes.append(outcome)
            index = self._outcome_ids[outcome] = len(self.outcomes) - 1
        return index

    def move(self, state: int, action: int) -> tuple:
        """Fill (or read) a move from the object model."""
        with self._lock:
            found = self.moves[state][action]
            if found is not None:
                return found
            cache, rest = divmod(action - 2, 4)
            protocol = self.representative(state)
            log: list = []
            for line_cache in protocol._caches:
                line_cache.log = log
            install = protocol._install

            def logged_install(cache, block, state, ops):
                log.append(("install", len(ops)))  # where a victim's ops go
                install(cache, block, state, ops)

            protocol._install = logged_install
            handler = protocol.on_read if rest < 2 else protocol.on_write
            outcome = handler(cache, 0, bool(rest & 1))
            held = [line is not None for line in self.snapshots[state][0]]
            recent = [False] * self.num_caches  # line already made MRU here
            effects = []
            position = 0
            for call, target in log:
                if call == "install":
                    position = target
                    continue
                index = protocol._caches.index(target)
                if call == "evict":
                    if held[index]:
                        effects.append((index, DROP))
                        held[index] = recent[index] = False
                elif held[index]:
                    if not recent[index]:
                        effects.append((index, REFRESH))
                        recent[index] = True
                elif call == "put":
                    effects.append((index, INSTALL | position << 2))
                    held[index] = recent[index] = True
            effects = tuple(effects)
            found = (
                self.state(protocol.snapshot_block(0)),
                self._outcome(outcome),
                self._effects.setdefault(effects, effects),
            )
            self.moves[state][action] = found
            return found

    def evict(self, state: int, cache: int) -> tuple:
        """Fill (or read) the action of *cache* dropping a line in *state*."""
        with self._lock:
            found = self.evictions[state][cache]
            if found is not None:
                return found
            protocol = self.representative(state)
            ops: list = []
            protocol._evicted(cache, 0, protocol._caches[cache].evict(0), ops)
            found = (self.state(protocol.snapshot_block(0)), tuple(ops))
            self.evictions[state][cache] = found
            return found

    def merged(self, index: int, ops: tuple, position: int) -> int:
        """Outcome *index* with a victim's *ops* at *position*, memoized."""
        key = (index, ops, position)
        with self._lock:
            found = self._merged.get(key)
            if found is None:
                outcome = self.outcomes[index]
                ops = outcome.ops[:position] + ops + outcome.ops[position:]
                found = self._merged[key] = self._outcome(replace(outcome, ops=ops))
            return found


_tables: OrderedDict[bytes, TransitionTable] = OrderedDict()
_tables_lock = threading.Lock()


def _fresh_locks() -> None:
    """After a fork, replace every lock another thread may have held.

    A table is consistent between any two statements (a state's rows
    and an outcome are appended before any id names them), so a forked
    pool worker keeps its parent's tables.
    """
    global _tables_lock
    _tables_lock = threading.Lock()
    for table in _tables.values():
        table._lock = threading.RLock()


os.register_at_fork(after_in_child=_fresh_locks)


def table_for(protocol: Any) -> TransitionTable:
    """The memoized table of *protocol*'s type, machine size and options.

    The key is the pickled blank copy: the protocol with its block maps
    emptied and its caches replaced by fresh recording infinite ones.
    """
    memo: dict = {id(entries): {} for entries in protocol._block_maps()}
    memo[id(protocol._caches)] = [_RecordingCache() for _ in protocol._caches]
    blank = copy.deepcopy(protocol, memo)
    key = pickle.dumps(blank)
    with _tables_lock:
        table = _tables.get(key)
        if table is None:
            table = _tables[key] = TransitionTable(partial(pickle.loads, key))
            if len(_tables) > MEMO_TABLES:
                _tables.popitem(last=False)
        else:
            _tables.move_to_end(key)
    return table


def _geometry(protocol: Any) -> tuple[int, int] | None:
    """``(0, 0)`` for all-infinite caches, ``(sets, ways)`` for one
    finite geometry, None for anything else."""
    shapes = set()
    for cache in protocol._caches:
        if type(cache) is InfiniteCache:
            shapes.add((0, 0))
        elif type(cache) is FiniteCache:
            shapes.add((cache.num_sets, cache.associativity))
        else:
            return None
    return shapes.pop() if len(shapes) == 1 else None


def has_table(protocol: Any) -> bool:
    """True if *protocol* runs on the transition tables."""
    return (
        type(protocol) in _STOCK
        and getattr(protocol, "dir_capacity", None) is None
        and _geometry(protocol) is not None
    )


class TableSession:
    """A table run kept open across a sequence of columnar chunks.

    Between :meth:`run_chunk` calls each block's state is one int and, under finite caches, one key in its LRU sets;
    the object model is written back once, at :meth:`finish`.
    """

    def __init__(
        self, simulator: Any, protocol: Any, result: Any, context: Any,
        geometry: tuple[int, int], states: dict[int, int], table: TransitionTable,
    ) -> None:
        self._simulator = simulator
        self._protocol = protocol
        self._result = result
        self._context = context
        self._table = table
        self._states = states
        # Identity-run batching, as the generic loop does: a run of one
        # outcome is counted once, at its end, so the result's dicts
        # keep the generic loop's first-occurrence order.
        self._counts: defaultdict[int, int] = defaultdict(int)
        self._previous = -1
        self._run = 0
        self._offsets: dict[int, int] = {}
        self._instructions = 0
        self._records = 0
        self._finished = False
        num_sets, self._ways = geometry
        self._set_mask = num_sets - 1
        self._sets = None
        if num_sets:
            self._sets = [
                [dict.fromkeys(line_set) for line_set in cache._sets]
                for cache in protocol._caches
            ]

    def _offset(self, sharer: int) -> int:
        """The move-key offset (``cache << 2``) of a sharer seen first here."""
        sharer_index = self._context.sharer_index
        cache = sharer_index.get(sharer)
        if cache is None:
            cache = len(sharer_index)
            limit = self._protocol.num_caches
            if cache >= limit:
                raise ConfigurationError(
                    f"trace contains more than num_caches={limit} "
                    f"distinct sharers (sharer id {sharer})"
                )
            sharer_index[sharer] = cache
        offset = self._offsets[sharer] = cache << 2
        return offset

    def run_chunk(self, chunk: ColumnarTrace) -> None:
        """Run one columnar chunk through the table."""
        if self._finished:
            raise RuntimeError("table session already finished")
        simulator = self._simulator
        instructions, codes, sharers, addresses = chunk.data_view(simulator.sharer_key)
        table = self._table
        moves = table.moves
        evictions = table.evictions
        states = self._states
        states_get = states.get
        counts = self._counts
        previous, run = self._previous, self._run
        offsets_get = self._offsets.get
        seen = self._context.seen_blocks
        seen_add = seen.add
        shift = simulator.block_mapper.offset_bits
        sets = self._sets
        set_mask = self._set_mask
        ways = self._ways
        for code, sharer, address in zip(
            codes.translate(_CODE_OFFSETS), sharers, addresses
        ):
            offset = offsets_get(sharer)
            if offset is None:
                offset = self._offset(sharer)
            block = address >> shift
            state = states_get(block, 0)
            action = offset + code
            if block not in seen:
                seen_add(block)
                action += 1
            move = moves[state][action] or table.move(state, action)
            if move[0] != state:
                states[block] = move[0]
            outcome = move[1]
            if sets is not None:
                set_index = block & set_mask
                for index, effect in move[2]:
                    line_set = sets[index][set_index]
                    if effect == REFRESH:
                        del line_set[block]
                        line_set[block] = None
                    elif effect == DROP:
                        del line_set[block]
                    else:
                        if len(line_set) >= ways:
                            victim = next(iter(line_set))
                            del line_set[victim]
                            held_by = states[victim]
                            evicted = evictions[held_by][index] or table.evict(
                                held_by, index
                            )
                            states[victim] = evicted[0]
                            if evicted[1]:
                                outcome = table.merged(outcome, evicted[1], effect >> 2)
                        line_set[block] = None
            if outcome == previous:
                run += 1
            else:
                counts[previous] += run
                previous, run = outcome, 1
        self._previous, self._run = previous, run
        self._instructions += instructions
        self._records += len(chunk)

    def finish(self) -> Any:
        """Write every block's state back and return the result.

        After this the protocol's caches, directory and protocol bits
        are exactly as the object model would have left them; the
        session is closed.
        """
        if self._finished:
            return self._result
        self._finished = True
        protocol = self._protocol
        known = self._table.snapshots
        snapshots = {block: known[state] for block, state in self._states.items()}
        block_maps = protocol._block_maps()
        rebuilt: list[dict] = [{} for _ in block_maps]
        for block, (_, entries) in snapshots.items():
            for stored, entry in zip(rebuilt, entries):
                if entry is not None:
                    stored[block] = entry
        for entries, stored in zip(block_maps, rebuilt):
            entries.clear()
            entries.update(stored)
        for index, cache in enumerate(protocol._caches):
            if self._sets is None:
                cache._lines = {
                    block: lines[index]
                    for block, (lines, _) in snapshots.items()
                    if lines[index] is not None
                }
            else:
                cache._sets = [
                    OrderedDict((block, snapshots[block][0][index]) for block in line_set)
                    for line_set in self._sets[index]
                ]
        outcomes = self._table.outcomes
        self._counts[self._previous] += self._run
        for index, count in self._counts.items():
            if count:
                self._result.record_batch(outcomes[index], count)
        self._result.record_instructions(self._instructions)
        self._context.records_done += self._records
        return self._result


def open_kernel_session(
    simulator: Any, protocol: Any, result: Any, context: Any
) -> TableSession | None:
    """Read *protocol*'s live state into a table session.

    Returns None (protocol and context untouched) when the protocol is
    not one the tables take, or holds a block the context has never
    seen; the caller then runs the generic columnar loop.
    """
    if not has_table(protocol):
        return None
    blocks = protocol.known_blocks()
    if not context.seen_blocks.issuperset(blocks):
        return None
    table = table_for(protocol)
    states = {block: table.state(protocol.snapshot_block(block)) for block in blocks}
    return TableSession(
        simulator, protocol, result, context, _geometry(protocol), states, table
    )


def kernel_run(
    simulator: Any, trace: ColumnarTrace, protocol: Any, result: Any, context: Any
) -> Any | None:
    """Run *trace* on the transition tables if they take *protocol*.

    Returns the completed result, or None, with the protocol and
    context untouched, when the generic columnar loop must run instead.
    """
    session = open_kernel_session(simulator, protocol, result, context)
    if session is None:
        return None
    session.run_chunk(trace)
    return session.finish()
