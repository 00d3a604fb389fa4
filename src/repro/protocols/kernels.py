"""Table-driven columnar kernels for the paper's hot protocols.

The generic columnar fast path (``Simulator._run_columnar``) still pays
per-reference *method dispatch*: every data reference walks
``on_read``/``on_write`` through cache-model calls, directory
bookkeeping, and ``ProtocolResult`` construction.  For the four
protocols that dominate sweeps — ``dir0b``, ``dir1nb``, ``wti``, and
``dragon`` — the reachable state space is tiny, so each protocol's
inner loop collapses to a handful of dict lookups over a **compact
state encoding** plus a table of precomputed, shared
:class:`ProtocolResult` instances keyed on (state, op, holder
relation).

Each protocol has **one kernel**, used for both cache models: the
paper's :class:`InfiniteCache` (Section 4) and this repository's
capacity extension, a :class:`FiniteCache` of one geometry shared by
every cache.  Finite capacity is an optional **LRU layer** on top of
the same transitions (see below); the kernel's ``finite`` flag guards
every piece of set bookkeeping, so infinite runs never touch it.

Each kernel is split into three stages so chunk-streamed simulation
(:mod:`repro.store`) can amortize the expensive ends:

* an **importer** reads the protocol's live object state, from either
  cache model, into the compact encoding, cross-checking every derived
  invariant;
* a **loop** runs the hot per-reference state machine over one
  columnar chunk, accumulating identity-batched outcomes;
* an **exporter** writes the compact state back into the protocol's
  caches and directory, exactly as the object model would have left
  them.

:func:`kernel_run` composes all three for a single in-memory trace;
:func:`open_kernel_session` returns a :class:`KernelSession` that
imports once, loops over any number of chunks with the compact
(interned sharer-bitmask) state resident in between, and exports once
at :meth:`KernelSession.finish` — so a multi-gigabyte chunked trace
never materializes per-chunk object-model state.

Bit-identity contract
---------------------

A kernel is an alternative *evaluator*, not an alternative *model*:

* it engages only for exact protocol/cache/directory types (any
  wrapper — a conformance oracle, a mutation-testing saboteur, a
  subclassed cache — fails the ``type() is`` gates and falls back to
  the generic path, so differential and chaos suites still exercise
  the real object model), for caches that are all infinite or all
  finite of one geometry, and only without a directory-entry bound
  (``dir_capacity`` recalls stay on the generic path);
* before running, the importer cross-checks the live state; any
  inconsistency aborts the kernel (returning None with protocol state
  untouched) and the generic path runs instead;
* after running, the exporter leaves the protocol's caches and
  directory exactly as the object model would have — segmented
  (checkpoint-windowed) simulation keeps feeding the same protocol
  instance through import/export round trips;
* event classification, bus-op tuples, ``clean_write_sharers``
  populations, and the identity-batched accumulation replicate the
  generic path decision for decision, so results are bit-identical
  (``tests/test_kernel_differential.py`` holds this per protocol and
  cache model, and the engine-parity / ``repro verify`` suites hold it
  end to end).

State encodings
---------------

* ``dir0b`` — per block: a holder bitmask, an optional dirty owner,
  and the two-bit directory state as an int.  Without evictions the
  directory state is a function of the other two; silent evictions
  make ``CLEAN_MANY`` sticky, so it is kept explicitly.
* ``dir1nb`` — per block: ``(holder << 1) | dirty`` — at most one
  cache ever holds a block.
* ``wti`` — per block: a holder bitmask (write-through caches are
  always clean).
* ``dragon`` — per block: a holder bitmask plus an optional owner.
  Without evictions the four Dragon line states are derived (sole
  holder: VE, or D when owning; shared: SC with the owner SD); finite
  caches store each line's state int in its LRU set instead, because
  a holder left alone by evictions stays ``SHARED_*``.

The LRU layer
-------------

Under finite caches each kernel also keeps, per cache, one plain dict
per cache set whose insertion order is the set's LRU order (oldest
first), exactly mirroring the ``OrderedDict`` sets of
:class:`FiniteCache`.  Replacement picks ``next(iter(set_dict))``; a
touch is delete-and-reinsert.  Because a reference installs at most
one line, a replacement adds at most one trailing bus op to the
outcome — memoized as the ``_with_wb`` variant so identity batching
still works.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.memory.cache import FiniteCache, InfiniteCache
from repro.memory.directory import (
    LimitedPointerDirectory,
    TwoBitDirectory,
    TwoBitState,
    _PointerEntry,
)
from repro.memory.line import DragonLineState, LineState
from repro.protocols.directory.dir0b import Dir0BProtocol
from repro.protocols.directory.dir1nb import Dir1NBProtocol
from repro.protocols.events import (
    RESULT_RD_HIT,
    RESULT_WH_BLK_DRTY,
    RESULT_WH_DISTRIB,
    RESULT_WH_LOCAL,
    EventType,
    ProtocolResult,
    broadcast_invalidate,
    cache_access,
    dir_check,
    dir_check_overlapped,
    invalidate,
    mem_access,
    write_back,
    write_word,
)
from repro.protocols.snoopy.dragon import DragonProtocol
from repro.protocols.snoopy.wti import WTIProtocol
from repro.trace.columnar import TYPE_READ, ColumnarTrace

# ----------------------------------------------------------------------
# Precomputed outcome tables.  Every entry matches, field for field, the
# ProtocolResult the object model constructs for the same transition.
# ----------------------------------------------------------------------

_RM_FIRST = ProtocolResult(EventType.RM_FIRST_REF)
_WM_FIRST = ProtocolResult(EventType.WM_FIRST_REF)

# dir0b (two-bit broadcast directory, multicopy state machine)
_D0_RM_DRTY = ProtocolResult(
    EventType.RM_BLK_DRTY, (dir_check_overlapped(), write_back())
)
_D0_RM_CLN = ProtocolResult(
    EventType.RM_BLK_CLN, (dir_check_overlapped(), mem_access())
)
_D0_WM_DRTY = ProtocolResult(
    EventType.WM_BLK_DRTY,
    (dir_check_overlapped(), broadcast_invalidate(), write_back()),
)
_D0_WM_ALONE = ProtocolResult(
    EventType.WM_BLK_CLN,
    (dir_check_overlapped(), mem_access()),
    clean_write_sharers=0,
)
_D0_WH_SOLE = ProtocolResult(
    EventType.WH_BLK_CLN, (dir_check(),), clean_write_sharers=0
)
#: Write hit on a clean-shared block, keyed by the other-holder count.
_D0_WH_CLN: dict[int, ProtocolResult] = {}
#: Write miss on a clean-shared block, keyed by the holder count.
_D0_WM_CLN: dict[int, ProtocolResult] = {}

# dir1nb (single pointer, no broadcast: at most one copy machine-wide)
_D1_WH_CLN = ProtocolResult(EventType.WH_BLK_CLN, clean_write_sharers=0)
_D1_RM_NOHOLDER = ProtocolResult(
    EventType.RM_BLK_CLN, (dir_check_overlapped(), mem_access())
)
_D1_RM_DRTY = ProtocolResult(
    EventType.RM_BLK_DRTY, (dir_check_overlapped(), invalidate(1), write_back())
)
_D1_RM_CLN = ProtocolResult(
    EventType.RM_BLK_CLN, (dir_check_overlapped(), invalidate(1), mem_access())
)
_D1_WM_NOHOLDER = ProtocolResult(
    EventType.WM_BLK_CLN, (dir_check_overlapped(), mem_access())
)
_D1_WM_DRTY = ProtocolResult(
    EventType.WM_BLK_DRTY, (dir_check_overlapped(), invalidate(1), write_back())
)
_D1_WM_CLN = ProtocolResult(
    EventType.WM_BLK_CLN, (dir_check_overlapped(), invalidate(1), mem_access())
)

# wti (write-through with invalidate; every write rides one bus word)
_WT_RM_CLN = ProtocolResult(EventType.RM_BLK_CLN, (mem_access(),))
_WT_WM_FIRST = ProtocolResult(EventType.WM_FIRST_REF, (write_word(),))
#: Write hit, keyed by the other-holder count snooped off the bus.
_WT_WH: dict[int, ProtocolResult] = {}
#: Allocating write miss, keyed by the other-holder count.
_WT_WM: dict[int, ProtocolResult] = {}

# dragon (write-update; misses and updates, never invalidations)
_DG_RM_DRTY = ProtocolResult(EventType.RM_BLK_DRTY, (cache_access(),))
_DG_RM_CLN = ProtocolResult(EventType.RM_BLK_CLN, (mem_access(),))
_DG_WM_DRTY = ProtocolResult(
    EventType.WM_BLK_DRTY, (cache_access(), write_word())
)
_DG_WM_CLN = ProtocolResult(EventType.WM_BLK_CLN, (mem_access(), write_word()))
_DG_WM_ALONE = ProtocolResult(EventType.WM_BLK_CLN, (mem_access(),))


def _d0_wh_cln(n_others: int) -> ProtocolResult:
    outcome = _D0_WH_CLN.get(n_others)
    if outcome is None:
        outcome = ProtocolResult(
            EventType.WH_BLK_CLN,
            (dir_check(), broadcast_invalidate()),
            clean_write_sharers=n_others,
        )
        _D0_WH_CLN[n_others] = outcome
    return outcome


def _d0_wm_cln(n_holders: int) -> ProtocolResult:
    outcome = _D0_WM_CLN.get(n_holders)
    if outcome is None:
        outcome = ProtocolResult(
            EventType.WM_BLK_CLN,
            (dir_check_overlapped(), mem_access(), broadcast_invalidate()),
            clean_write_sharers=n_holders,
        )
        _D0_WM_CLN[n_holders] = outcome
    return outcome


def _wt_wh(n_others: int) -> ProtocolResult:
    outcome = _WT_WH.get(n_others)
    if outcome is None:
        outcome = ProtocolResult(
            EventType.WH_BLK_CLN, (write_word(),), clean_write_sharers=n_others
        )
        _WT_WH[n_others] = outcome
    return outcome


def _wt_wm(n_others: int) -> ProtocolResult:
    outcome = _WT_WM.get(n_others)
    if outcome is None:
        outcome = ProtocolResult(
            EventType.WM_BLK_CLN,
            (write_word(), mem_access()),
            clean_write_sharers=n_others,
        )
        _WT_WM[n_others] = outcome
    return outcome


# ----------------------------------------------------------------------
# Shared scaffolding
# ----------------------------------------------------------------------

#: Infinite-model outcome -> the same outcome with the trailing
#: write-back of a replaced dirty victim (dir0b / dir1nb / dragon).
_WITH_WB: dict[ProtocolResult, ProtocolResult] = {}


def _with_wb(base: ProtocolResult) -> ProtocolResult:
    """*base* plus the write-back of the replaced dirty victim."""
    outcome = _WITH_WB.get(base)
    if outcome is None:
        outcome = ProtocolResult(
            base.event,
            base.ops + (write_back(),),
            clean_write_sharers=base.clean_write_sharers,
            wasted_invalidations=base.wasted_invalidations,
            pointer_evictions=base.pointer_evictions,
            directory_recalls=base.directory_recalls,
        )
        _WITH_WB[base] = outcome
    return outcome


def _cache_geometry(protocol: Any) -> tuple[int, int] | None:
    """The (num_sets, associativity) every cache shares.

    ``(0, 0)`` when every cache is the exact :class:`InfiniteCache`;
    None for anything else — a subclassed cache, a mix of cache models,
    or finite caches of different geometries.
    """
    geometry: tuple[int, int] | None = None
    for cache in protocol._caches:
        kind = type(cache)
        if kind is InfiniteCache:
            shape = (0, 0)
        elif kind is FiniteCache:
            shape = (cache._num_sets, cache._associativity)
        else:
            return None
        if geometry is None:
            geometry = shape
        elif shape != geometry:
            return None
    return geometry


def _lru_layer(
    protocol: Any,
    geometry: tuple[int, int],
    state: dict[str, Any],
    encode: Callable | None = None,
) -> dict[str, Any]:
    """Add the LRU layer's fields to an imported kernel *state*.

    Under finite caches ``sets`` holds, per cache, one plain dict per
    set in the set's LRU order, mapping each block to None (or to
    ``encode(line state)``).  Infinite caches have no sets.
    """
    num_sets, assoc = geometry
    finite = num_sets > 0
    sets = None
    if finite:
        sets = [
            [
                dict.fromkeys(line_set)
                if encode is None
                else {block: encode(line) for block, line in line_set.items()}
                for line_set in cache._sets
            ]
            for cache in protocol._caches
        ]
    state.update(finite=finite, sets=sets, set_mask=num_sets - 1, assoc=assoc)
    return state


def _write_lines(
    protocol: Any,
    state: dict[str, Any],
    mask: dict[int, int],
    line_state: Callable[[int, int], Any],
) -> None:
    """Store every cache's lines back into its own cache model.

    Finite caches get their sets rebuilt in the kernel's LRU order;
    infinite caches get one line per holder bit of each block's *mask*.
    ``line_state(cache index, block)`` gives each line's state.
    """
    caches = protocol._caches
    if state["finite"]:
        for index, (cache, per_set) in enumerate(zip(caches, state["sets"])):
            cache._sets = [
                OrderedDict((block, line_state(index, block)) for block in line_set)
                for line_set in per_set
            ]
        return
    new_lines: list[dict] = [{} for _ in caches]
    for block, held in mask.items():
        while held:
            low = held & -held
            index = low.bit_length() - 1
            new_lines[index][block] = line_state(index, block)
            held ^= low
    for cache, cache_lines in zip(caches, new_lines):
        cache._lines = cache_lines


def _too_many_sharers(limit: int, sharer: int) -> ConfigurationError:
    return ConfigurationError(
        f"trace contains more than num_caches={limit} "
        f"distinct sharers (sharer id {sharer})"
    )


def _flush_batches(
    result: Any,
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
    instr_count: int,
) -> None:
    """Flush the identity-run batches exactly as ``_run_columnar`` does."""
    if previous is not None:
        entry = pending.get(id(previous))
        if entry is None:
            pending[id(previous)] = [previous, run_length]
        else:
            entry[1] += run_length
    record_batch = result.record_batch
    for outcome, count in pending.values():
        record_batch(outcome, count)
    result.record_instructions(instr_count)


# ----------------------------------------------------------------------
# dir0b
# ----------------------------------------------------------------------

#: TwoBitState -> the kernel's directory-state int (0 is never stored).
_D0_CODES: dict[TwoBitState, int] = {
    TwoBitState.NOT_CACHED: 0,
    TwoBitState.CLEAN_ONE: 1,
    TwoBitState.CLEAN_MANY: 2,
    TwoBitState.DIRTY_ONE: 3,
}
_D0_STATES = (
    TwoBitState.NOT_CACHED,
    TwoBitState.CLEAN_ONE,
    TwoBitState.CLEAN_MANY,
    TwoBitState.DIRTY_ONE,
)


def _import_dir0b(protocol: Any, context: Any) -> dict[str, Any] | None:
    if protocol.dir_capacity is not None:
        return None  # directory recalls stay on the generic path
    directory = protocol._directory
    if type(directory) is not TwoBitDirectory:
        return None
    geometry = _cache_geometry(protocol)
    if geometry is None:
        return None
    finite = geometry[0] > 0

    # (holder bitmask, dirty owner) per block: one dirty owner at most,
    # and a dirty owner never shares.
    mask: dict[int, int] = {}
    owner: dict[int, int] = {}
    clean = LineState.CLEAN
    dirty = LineState.DIRTY
    for index, cache in enumerate(protocol._caches):
        bit = 1 << index
        for block, line in cache.items():
            mask[block] = mask.get(block, 0) | bit
            if line is dirty:
                if block in owner:
                    return None
                owner[block] = index
            elif line is not clean:
                return None
    for block, who in owner.items():
        if mask[block] != 1 << who:
            return None
    # A held block the context has never seen would let a first_ref
    # land on it — unreachable in the object model, so refuse to guess.
    if not context.seen_blocks >= mask.keys():
        return None

    dirstate: dict[int, int] = {}
    for block, stored in directory._states.items():
        code = _D0_CODES.get(stored)
        if code is None:
            return None
        if code:
            dirstate[block] = code
    for block, held in mask.items():
        code = dirstate.get(block, 0)
        if code == 0:
            return None  # held blocks always have a directory state
        if (code == 3) != (block in owner):
            return None
        if code == 1 and held & (held - 1):
            return None
    for block, code in dirstate.items():
        held = mask.get(block, 0)
        if code == 1 and held == 0:
            return None
        if code == 3 and block not in owner:
            return None
        # Silent evictions make CLEAN_MANY sticky: under finite caches
        # it can outlive all but one holder, or all of them.  Without
        # evictions it always means two holders or more.
        if code == 2 and not finite and held & (held - 1) == 0:
            return None
    return _lru_layer(
        protocol, geometry, {"mask": mask, "owner": owner, "dirstate": dirstate}
    )


def _loop_dir0b(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    context: Any,
    state: dict[str, Any],
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
) -> tuple[ProtocolResult | None, int, int]:
    mask = state["mask"]
    owner = state["owner"]
    dirstate = state["dirstate"]
    finite = state["finite"]
    sets = state["sets"]
    set_mask = state["set_mask"]
    assoc = state["assoc"]
    instr_count, type_codes, sharer_col, addresses = trace.data_view(
        simulator.sharer_key
    )
    sharer_index = context.sharer_index
    sharer_lookup = sharer_index.get
    seen = context.seen_blocks
    seen_add = seen.add
    shift = simulator.block_mapper.offset_bits
    limit = protocol.num_caches
    mask_get = mask.get
    dirstate_get = dirstate.get
    wh_cln = _D0_WH_CLN.get
    wm_cln = _D0_WM_CLN.get
    read = TYPE_READ
    pending_get = pending.get

    def spill(cache: int, bit: int, line_set: dict) -> bool:
        """Replace the set's LRU line; True if the victim wrote back."""
        victim = next(iter(line_set))
        del line_set[victim]
        held = mask[victim] & ~bit
        if held:
            mask[victim] = held
        else:
            del mask[victim]
        if owner.get(victim) == cache:
            del owner[victim]
            del dirstate[victim]
            return True
        code = dirstate_get(victim, 0)
        if code == 1 or code == 3:
            del dirstate[victim]  # note_invalidated; CLEAN_MANY sticks
        return False

    def drop(rem: int, block: int) -> None:
        """Invalidate the lines of every holder in *rem*."""
        while rem:
            low = rem & -rem
            del sets[low.bit_length() - 1][block & set_mask][block]
            rem ^= low

    for code, sharer, address in zip(type_codes, sharer_col, addresses):
        cache = sharer_lookup(sharer)
        if cache is None:
            cache = len(sharer_index)
            if cache >= limit:
                raise _too_many_sharers(limit, sharer)
            sharer_index[sharer] = cache
        block = address >> shift
        if block in seen:
            first = False
        else:
            first = True
            seen_add(block)
        bit = 1 << cache
        held = mask_get(block, 0)
        if code == read:
            if held & bit:
                outcome = RESULT_RD_HIT
                if finite:
                    line_set = sets[cache][block & set_mask]
                    del line_set[block]
                    line_set[block] = None
            else:
                if first:
                    base = _RM_FIRST
                else:
                    own = owner.pop(block, None)
                    if own is not None:
                        # The owner flushes and keeps a clean copy.
                        dirstate[block] = 1
                        if finite:
                            own_set = sets[own][block & set_mask]
                            del own_set[block]
                            own_set[block] = None
                        base = _D0_RM_DRTY
                    else:
                        base = _D0_RM_CLN
                mask[block] = held | bit
                dirstate[block] = 1 if dirstate_get(block, 0) == 0 else 2
                outcome = base
                if finite:
                    line_set = sets[cache][block & set_mask]
                    if len(line_set) >= assoc and spill(cache, bit, line_set):
                        outcome = _with_wb(base)
                    line_set[block] = None
        else:
            if held & bit:
                if block in owner:
                    # Sole-holder invariant: the owner is this cache.
                    outcome = RESULT_WH_BLK_DRTY
                else:
                    # Sticky CLEAN_MANY broadcasts even with no other
                    # holders left, so branch on the directory state.
                    if dirstate_get(block, 0) == 1:
                        outcome = _D0_WH_SOLE
                    else:
                        n_others = (held & ~bit).bit_count()
                        outcome = wh_cln(n_others) or _d0_wh_cln(n_others)
                    if finite:
                        drop(held & ~bit, block)
                    mask[block] = bit
                    owner[block] = cache
                    dirstate[block] = 3
                if finite:
                    line_set = sets[cache][block & set_mask]
                    del line_set[block]
                    line_set[block] = None
            else:
                if first:
                    base = _WM_FIRST
                elif block in owner:
                    own = owner.pop(block)
                    if finite:
                        del sets[own][block & set_mask][block]
                    base = _D0_WM_DRTY
                elif held:
                    n_holders = held.bit_count()
                    base = wm_cln(n_holders) or _d0_wm_cln(n_holders)
                    if finite:
                        drop(held, block)
                elif dirstate_get(block, 0):
                    base = wm_cln(0) or _d0_wm_cln(0)
                else:
                    base = _D0_WM_ALONE
                mask[block] = bit
                owner[block] = cache
                dirstate[block] = 3
                outcome = base
                if finite:
                    line_set = sets[cache][block & set_mask]
                    if len(line_set) >= assoc and spill(cache, bit, line_set):
                        outcome = _with_wb(base)
                    line_set[block] = None
        if outcome is previous:
            run_length += 1
        elif previous is None:
            previous = outcome
            run_length = 1
        else:
            entry = pending_get(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
            previous = outcome
            run_length = 1
    return previous, run_length, instr_count


def _export_dir0b(protocol: Any, state: dict[str, Any]) -> None:
    owner = state["owner"]
    clean = LineState.CLEAN
    dirty = LineState.DIRTY
    _write_lines(
        protocol,
        state,
        state["mask"],
        lambda index, block: dirty if owner.get(block) == index else clean,
    )
    protocol._directory._states = {
        block: _D0_STATES[code] for block, code in state["dirstate"].items()
    }


# ----------------------------------------------------------------------
# dir1nb
# ----------------------------------------------------------------------


def _import_dir1nb(protocol: Any, context: Any) -> dict[str, Any] | None:
    if protocol.dir_capacity is not None:
        return None  # directory recalls stay on the generic path
    directory = protocol._directory
    if (
        type(directory) is not LimitedPointerDirectory
        or directory.num_pointers != 1
        or directory.broadcast_bit
    ):
        return None
    geometry = _cache_geometry(protocol)
    if geometry is None:
        return None

    # Per block: (holder << 1) | dirty — the single-copy invariant.
    holders: dict[int, int] = {}
    for index, cache in enumerate(protocol._caches):
        for block, line in cache.items():
            if block in holders:
                return None  # two copies: outside the dir1nb model
            if line is LineState.DIRTY:
                holders[block] = (index << 1) | 1
            elif line is LineState.CLEAN:
                holders[block] = index << 1
            else:
                return None
    if not context.seen_blocks >= holders.keys():
        return None
    entries = directory._entries
    for block, stored in entries.items():
        if stored.broadcast:
            return None
        encoded = holders.get(block)
        if encoded is None:
            if stored.pointers or stored.dirty:
                return None
        elif stored.pointers != [encoded >> 1] or stored.dirty != bool(encoded & 1):
            return None
    for block in holders:
        if block not in entries:
            return None
    return _lru_layer(protocol, geometry, {"holders": holders})


def _loop_dir1nb(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    context: Any,
    state: dict[str, Any],
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
) -> tuple[ProtocolResult | None, int, int]:
    holders = state["holders"]
    finite = state["finite"]
    sets = state["sets"]
    set_mask = state["set_mask"]
    assoc = state["assoc"]
    instr_count, type_codes, sharer_col, addresses = trace.data_view(
        simulator.sharer_key
    )
    sharer_index = context.sharer_index
    sharer_lookup = sharer_index.get
    seen = context.seen_blocks
    seen_add = seen.add
    shift = simulator.block_mapper.offset_bits
    limit = protocol.num_caches
    holders_get = holders.get
    read = TYPE_READ
    pending_get = pending.get

    def install(cache: int, block: int, encoded: int | None) -> int:
        """Move *block*'s single copy (*encoded*, if any) into *cache*'s
        set, replacing the set's LRU line; nonzero when the victim was
        dirty."""
        if encoded is not None:
            del sets[encoded >> 1][block & set_mask][block]
        line_set = sets[cache][block & set_mask]
        wrote_back = 0
        if len(line_set) >= assoc:
            victim = next(iter(line_set))
            del line_set[victim]
            wrote_back = holders.pop(victim) & 1
        line_set[block] = None
        return wrote_back

    for code, sharer, address in zip(type_codes, sharer_col, addresses):
        cache = sharer_lookup(sharer)
        if cache is None:
            cache = len(sharer_index)
            if cache >= limit:
                raise _too_many_sharers(limit, sharer)
            sharer_index[sharer] = cache
        block = address >> shift
        if block in seen:
            first = False
        else:
            first = True
            seen_add(block)
        encoded = holders_get(block)
        if encoded is not None and encoded >> 1 == cache:
            if code == read:
                outcome = RESULT_RD_HIT
            elif encoded & 1:
                outcome = RESULT_WH_BLK_DRTY
            else:
                outcome = _D1_WH_CLN
                holders[block] = encoded | 1
            if finite:
                line_set = sets[cache][block & set_mask]
                del line_set[block]
                line_set[block] = None
        else:
            if code == read:
                if first:
                    base = _RM_FIRST
                elif encoded is None:
                    base = _D1_RM_NOHOLDER
                elif encoded & 1:
                    base = _D1_RM_DRTY
                else:
                    base = _D1_RM_CLN
            elif first:
                base = _WM_FIRST
            elif encoded is None:
                base = _D1_WM_NOHOLDER
            elif encoded & 1:
                base = _D1_WM_DRTY
            else:
                base = _D1_WM_CLN
            if finite and install(cache, block, encoded):
                outcome = _with_wb(base)
            else:
                outcome = base
            holders[block] = cache << 1 if code == read else (cache << 1) | 1
        if outcome is previous:
            run_length += 1
        elif previous is None:
            previous = outcome
            run_length = 1
        else:
            entry = pending_get(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
            previous = outcome
            run_length = 1
    return previous, run_length, instr_count


def _export_dir1nb(protocol: Any, state: dict[str, Any]) -> None:
    holders = state["holders"]
    clean = LineState.CLEAN
    dirty = LineState.DIRTY
    _write_lines(
        protocol,
        state,
        {block: 1 << (encoded >> 1) for block, encoded in holders.items()},
        lambda index, block: dirty if holders[block] & 1 else clean,
    )
    protocol._directory._entries = {
        block: _PointerEntry(dirty=bool(encoded & 1), pointers=[encoded >> 1])
        for block, encoded in holders.items()
    }


# ----------------------------------------------------------------------
# wti
# ----------------------------------------------------------------------


def _import_wti(protocol: Any, context: Any) -> dict[str, Any] | None:
    geometry = _cache_geometry(protocol)
    if geometry is None:
        return None
    mask: dict[int, int] = {}
    clean = LineState.CLEAN
    for index, cache in enumerate(protocol._caches):
        bit = 1 << index
        for block, line in cache.items():
            if line is not clean:
                return None  # write-through lines are never dirty
            mask[block] = mask.get(block, 0) | bit
    if not context.seen_blocks >= mask.keys():
        return None
    return _lru_layer(protocol, geometry, {"mask": mask})


def _loop_wti(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    context: Any,
    state: dict[str, Any],
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
) -> tuple[ProtocolResult | None, int, int]:
    mask = state["mask"]
    finite = state["finite"]
    sets = state["sets"]
    set_mask = state["set_mask"]
    assoc = state["assoc"]
    instr_count, type_codes, sharer_col, addresses = trace.data_view(
        simulator.sharer_key
    )
    sharer_index = context.sharer_index
    sharer_lookup = sharer_index.get
    seen = context.seen_blocks
    seen_add = seen.add
    shift = simulator.block_mapper.offset_bits
    limit = protocol.num_caches
    mask_get = mask.get
    wt_wh = _WT_WH.get
    wt_wm = _WT_WM.get
    read = TYPE_READ
    pending_get = pending.get

    def install(bit: int, line_set: dict, block: int) -> None:
        # Write-through victims drop silently: nothing is dirty and
        # snoop bookkeeping has no directory to notify.
        if len(line_set) >= assoc:
            victim = next(iter(line_set))
            del line_set[victim]
            held = mask[victim] & ~bit
            if held:
                mask[victim] = held
            else:
                del mask[victim]
        line_set[block] = None

    for code, sharer, address in zip(type_codes, sharer_col, addresses):
        cache = sharer_lookup(sharer)
        if cache is None:
            cache = len(sharer_index)
            if cache >= limit:
                raise _too_many_sharers(limit, sharer)
            sharer_index[sharer] = cache
        block = address >> shift
        if block in seen:
            first = False
        else:
            first = True
            seen_add(block)
        bit = 1 << cache
        held = mask_get(block, 0)
        if code == read:
            if held & bit:
                outcome = RESULT_RD_HIT
                if finite:
                    line_set = sets[cache][block & set_mask]
                    del line_set[block]
                    line_set[block] = None
            else:
                outcome = _RM_FIRST if first else _WT_RM_CLN
                if finite:
                    install(bit, sets[cache][block & set_mask], block)
                mask[block] = held | bit
        else:
            # Every write goes to the bus; snoopers drop their copies.
            rem = held & ~bit
            n_others = rem.bit_count()
            if finite:
                while rem:
                    low = rem & -rem
                    del sets[low.bit_length() - 1][block & set_mask][block]
                    rem ^= low
            if held & bit:
                outcome = wt_wh(n_others) or _wt_wh(n_others)
                if finite:
                    line_set = sets[cache][block & set_mask]
                    del line_set[block]
                    line_set[block] = None
            else:
                if first:
                    outcome = _WT_WM_FIRST
                else:
                    outcome = wt_wm(n_others) or _wt_wm(n_others)
                if finite:
                    install(bit, sets[cache][block & set_mask], block)
            mask[block] = bit
        if outcome is previous:
            run_length += 1
        elif previous is None:
            previous = outcome
            run_length = 1
        else:
            entry = pending_get(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
            previous = outcome
            run_length = 1
    return previous, run_length, instr_count


def _export_wti(protocol: Any, state: dict[str, Any]) -> None:
    clean = LineState.CLEAN
    _write_lines(protocol, state, state["mask"], lambda index, block: clean)


# ----------------------------------------------------------------------
# dragon
# ----------------------------------------------------------------------

#: DragonLineState <-> compact int code (owner states are >= 2).
_DG_CODES: dict[DragonLineState, int] = {
    DragonLineState.VALID_EXCLUSIVE: 0,
    DragonLineState.SHARED_CLEAN: 1,
    DragonLineState.SHARED_DIRTY: 2,
    DragonLineState.DIRTY: 3,
}
_DG_STATES: tuple[DragonLineState, ...] = (
    DragonLineState.VALID_EXCLUSIVE,
    DragonLineState.SHARED_CLEAN,
    DragonLineState.SHARED_DIRTY,
    DragonLineState.DIRTY,
)


def _import_dragon(protocol: Any, context: Any) -> dict[str, Any] | None:
    geometry = _cache_geometry(protocol)
    if geometry is None:
        return None
    finite = geometry[0] > 0
    code_of = _DG_CODES.get
    mask: dict[int, int] = {}
    owner: dict[int, int] = {}
    exclusive: set[int] = set()
    for index, cache in enumerate(protocol._caches):
        bit = 1 << index
        for block, line in cache.items():
            line_code = code_of(line)
            if line_code is None:
                return None
            mask[block] = mask.get(block, 0) | bit
            if line_code >= 2:
                if block in owner:
                    return None
                owner[block] = index
            if line_code == 0 or line_code == 3:
                exclusive.add(block)
    for block, held in mask.items():
        if held & (held - 1):
            if block in exclusive:
                return None  # VE / D lines must be sole holders
        elif not finite and block not in exclusive:
            # Only an eviction leaves a sole holder in a shared state;
            # without evictions the line states are derived.
            return None
    if not context.seen_blocks >= mask.keys():
        return None
    return _lru_layer(
        protocol, geometry, {"mask": mask, "owner": owner}, encode=_DG_CODES.get
    )


def _loop_dragon(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    context: Any,
    state: dict[str, Any],
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
) -> tuple[ProtocolResult | None, int, int]:
    mask = state["mask"]
    owner = state["owner"]
    finite = state["finite"]
    sets = state["sets"]
    set_mask = state["set_mask"]
    assoc = state["assoc"]
    instr_count, type_codes, sharer_col, addresses = trace.data_view(
        simulator.sharer_key
    )
    sharer_index = context.sharer_index
    sharer_lookup = sharer_index.get
    seen = context.seen_blocks
    seen_add = seen.add
    shift = simulator.block_mapper.offset_bits
    limit = protocol.num_caches
    mask_get = mask.get
    read = TYPE_READ
    pending_get = pending.get

    def demote(rem: int, block: int) -> None:
        """Shift joining-block holders to shared states, as the object
        model's ``_demote_to_shared`` does (VE -> SC, D -> SD, both
        touched; already-shared states are left in place)."""
        index_in_set = block & set_mask
        while rem:
            low = rem & -rem
            holder_set = sets[low.bit_length() - 1][index_in_set]
            line_code = holder_set[block]
            if line_code == 0:
                del holder_set[block]
                holder_set[block] = 1
            elif line_code == 3:
                del holder_set[block]
                holder_set[block] = 2
            rem ^= low

    def install(cache: int, bit: int, block: int, line_code: int) -> bool:
        """Install a line, replacing the set's LRU victim; True when the
        victim owned its block (costing the dirty write-back)."""
        line_set = sets[cache][block & set_mask]
        flushed = False
        if len(line_set) >= assoc:
            victim = next(iter(line_set))
            victim_code = line_set.pop(victim)
            held = mask[victim] & ~bit
            if held:
                mask[victim] = held
            else:
                del mask[victim]
            if victim_code >= 2:
                del owner[victim]
                flushed = True
        line_set[block] = line_code
        return flushed

    for code, sharer, address in zip(type_codes, sharer_col, addresses):
        cache = sharer_lookup(sharer)
        if cache is None:
            cache = len(sharer_index)
            if cache >= limit:
                raise _too_many_sharers(limit, sharer)
            sharer_index[sharer] = cache
        block = address >> shift
        if block in seen:
            first = False
        else:
            first = True
            seen_add(block)
        bit = 1 << cache
        held = mask_get(block, 0)
        if code == read:
            if held & bit:
                outcome = RESULT_RD_HIT
                if finite:
                    line_set = sets[cache][block & set_mask]
                    line_set[block] = line_set.pop(block)
            else:
                if first:
                    base = _RM_FIRST
                elif block in owner:
                    # The owner supplies the block and stays owner
                    # (DIRTY demotes to SHARED_DIRTY, still owning).
                    base = _DG_RM_DRTY
                else:
                    # With no holders left (all copies silently
                    # evicted) memory is current.
                    base = _DG_RM_CLN
                mask[block] = held | bit
                outcome = base
                if finite:
                    if held:
                        demote(held, block)
                    if install(cache, bit, block, 1 if held else 0):
                        outcome = _with_wb(base)
        else:
            if held & bit:
                if held == bit:
                    outcome = RESULT_WH_LOCAL
                    if finite:
                        line_set = sets[cache][block & set_mask]
                        del line_set[block]
                        line_set[block] = 3
                else:
                    # Update broadcast: the writer takes SHARED_DIRTY
                    # ownership, a previous owner demotes to
                    # SHARED_CLEAN (touched).
                    outcome = RESULT_WH_DISTRIB
                    if finite:
                        index_in_set = block & set_mask
                        rem = held & ~bit
                        while rem:
                            low = rem & -rem
                            holder_set = sets[low.bit_length() - 1][index_in_set]
                            if holder_set[block] >= 2:
                                del holder_set[block]
                                holder_set[block] = 1
                            rem ^= low
                        line_set = sets[cache][index_in_set]
                        del line_set[block]
                        line_set[block] = 2
                owner[block] = cache
            else:
                if first:
                    base = _WM_FIRST
                elif block in owner:
                    base = _DG_WM_DRTY
                    if finite:
                        # The previous owner keeps a SHARED_CLEAN copy.
                        own_set = sets[owner[block]][block & set_mask]
                        del own_set[block]
                        own_set[block] = 1
                elif held:
                    base = _DG_WM_CLN
                    if finite:
                        demote(held, block)
                else:
                    base = _DG_WM_ALONE
                mask[block] = held | bit
                owner[block] = cache
                outcome = base
                if finite and install(cache, bit, block, 2 if held else 3):
                    outcome = _with_wb(base)
        if outcome is previous:
            run_length += 1
        elif previous is None:
            previous = outcome
            run_length = 1
        else:
            entry = pending_get(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
            previous = outcome
            run_length = 1
    return previous, run_length, instr_count


def _export_dragon(protocol: Any, state: dict[str, Any]) -> None:
    mask = state["mask"]
    owner = state["owner"]
    if state["finite"]:
        sets = state["sets"]
        set_mask = state["set_mask"]

        def line_state(index: int, block: int) -> DragonLineState:
            return _DG_STATES[sets[index][block & set_mask][block]]

    else:

        def line_state(index: int, block: int) -> DragonLineState:
            held = mask[block]
            own = owner.get(block)
            if held & (held - 1) == 0:
                return _DG_STATES[0 if own is None else 3]
            return _DG_STATES[2 if index == own else 1]

    _write_lines(protocol, state, mask, line_state)


# ----------------------------------------------------------------------
# Sessions and dispatch
# ----------------------------------------------------------------------

#: Exact protocol type -> (importer, loop, exporter).  Keyed by type
#: identity on purpose: subclasses (and wrappers) take the generic
#: object-model path.
_KERNELS: dict[type, tuple[Callable, Callable, Callable]] = {
    Dir0BProtocol: (_import_dir0b, _loop_dir0b, _export_dir0b),
    Dir1NBProtocol: (_import_dir1nb, _loop_dir1nb, _export_dir1nb),
    WTIProtocol: (_import_wti, _loop_wti, _export_wti),
    DragonProtocol: (_import_dragon, _loop_dragon, _export_dragon),
}


class KernelSession:
    """One kernel run kept open across a sequence of columnar chunks.

    Created by :func:`open_kernel_session` after a successful state
    import.  Between :meth:`run_chunk` calls the protocol's state lives
    only in the compact encoding (interned per-block sharer bitmasks
    and owner ids) — the object model is reconstructed exactly once, at
    :meth:`finish`.  Identity-run batching spans chunk boundaries, so
    the accumulated result is bit-identical to one continuous
    :func:`kernel_run` over the concatenated trace.
    """

    __slots__ = (
        "_simulator", "_protocol", "_result", "_context", "_state",
        "_loop", "_export", "_pending", "_previous", "_run_length",
        "_instr_count", "_records", "_finished",
    )

    def __init__(
        self,
        simulator: Any,
        protocol: Any,
        result: Any,
        context: Any,
        state: dict[str, Any],
        loop: Callable,
        export: Callable,
    ) -> None:
        self._simulator = simulator
        self._protocol = protocol
        self._result = result
        self._context = context
        self._state = state
        self._loop = loop
        self._export = export
        self._pending: dict[int, list] = {}
        self._previous: ProtocolResult | None = None
        self._run_length = 0
        self._instr_count = 0
        self._records = 0
        self._finished = False

    def run_chunk(self, chunk: ColumnarTrace) -> None:
        """Run one columnar chunk through the hot loop."""
        if self._finished:
            raise RuntimeError("kernel session already finished")
        self._previous, self._run_length, instr = self._loop(
            self._simulator,
            chunk,
            self._protocol,
            self._context,
            self._state,
            self._pending,
            self._previous,
            self._run_length,
        )
        self._instr_count += instr
        self._records += len(chunk)

    def finish(self) -> Any:
        """Export the compact state back and return the result.

        After this the protocol's caches/directory are exactly as the
        object model would have left them; the session is closed.
        """
        if self._finished:
            return self._result
        self._finished = True
        self._export(self._protocol, self._state)
        _flush_batches(
            self._result,
            self._pending,
            self._previous,
            self._run_length,
            self._instr_count,
        )
        self._context.records_done += self._records
        return self._result


def has_kernel(protocol: Any) -> bool:
    """True if *protocol*'s exact type has a table-driven kernel."""
    return type(protocol) in _KERNELS


def open_kernel_session(
    simulator: Any, protocol: Any, result: Any, context: Any
) -> KernelSession | None:
    """Import *protocol*'s live state and open a chunk-streaming session.

    Returns None (protocol and context untouched) when no kernel exists
    for the protocol's exact type or the live state fails an import
    invariant — the caller then falls back to the generic columnar loop
    for every chunk.
    """
    triple = _KERNELS.get(type(protocol))
    if triple is None:
        return None
    importer, loop, export = triple
    state = importer(protocol, context)
    if state is None:
        return None
    return KernelSession(simulator, protocol, result, context, state, loop, export)


def kernel_run(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    result: Any,
    context: Any,
) -> Any | None:
    """Run *trace* through a state-table kernel if one safely applies.

    Returns the completed result, or None when no kernel exists for the
    protocol's exact type or the live state fails an import invariant —
    the caller then falls back to the generic columnar loop.  A None
    return guarantees the protocol and context are untouched.
    """
    session = open_kernel_session(simulator, protocol, result, context)
    if session is None:
        return None
    session.run_chunk(trace)
    return session.finish()
