"""Goodman's Write-Once protocol (the paper's reference [2]).

The original snoopy copy-back scheme, included as an extension
comparator between WTI and the copy-back invalidation protocols.  Line
states:

* ``VALID`` — clean, possibly shared, memory current;
* ``RESERVED`` — written through exactly once: memory still current,
  guaranteed the only cached copy;
* ``DIRTY`` — written locally more than once: memory stale, exclusive.

The "write-once" trick: the **first** write to a valid block is written
through (one bus word, which also invalidates other copies via
snooping) and the line becomes RESERVED; subsequent writes stay local
(RESERVED -> DIRTY).  Reads that miss are served by memory unless a
DIRTY copy exists, in which case that cache supplies the block and
memory is updated.
"""

from __future__ import annotations

import enum

from repro.memory.cache import InfiniteCache
from repro.protocols.base import SnoopyProtocol
from repro.protocols.events import (
    RESULT_RD_HIT,
    RESULT_WH_BLK_DRTY,
    EventType,
    ProtocolResult,
    mem_access,
    write_back,
    write_word,
)


class WriteOnceState(enum.Enum):
    """Write-once line states (INVALID is represented by absence)."""

    VALID = "valid"
    RESERVED = "reserved"
    DIRTY = "dirty"

    @property
    def is_dirty(self) -> bool:
        """Memory is stale only for DIRTY (RESERVED wrote through)."""
        return self is WriteOnceState.DIRTY

    @property
    def is_exclusive(self) -> bool:
        """RESERVED and DIRTY lines are guaranteed sole copies."""
        return self is not WriteOnceState.VALID


class WriteOnceProtocol(SnoopyProtocol):
    """Goodman's write-once snoopy protocol."""

    name = "write-once"

    def __init__(self, num_caches: int, cache_factory=InfiniteCache) -> None:
        super().__init__(num_caches, cache_factory=cache_factory)

    def _other_holders(self, block: int, cache: int) -> list[int]:
        return [
            index
            for index, other in enumerate(self._caches)
            if index != cache and other.get(block) is not None
        ]

    def _dirty_owner(self, block: int) -> int | None:
        for index, other in enumerate(self._caches):
            if other.get(block) is WriteOnceState.DIRTY:
                return index
        return None

    def on_read(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data read; see :meth:`CoherenceProtocol.on_read`."""
        self._check_cache_index(cache)
        if self._caches[cache].get(block) is not None:
            self._caches[cache].touch(block)
            return RESULT_RD_HIT

        ops: list = []
        if first_ref:
            self._install(cache, block, WriteOnceState.VALID, ops)
            return ProtocolResult(EventType.RM_FIRST_REF, tuple(ops))

        owner = self._dirty_owner(block)
        if owner is not None:
            event = EventType.RM_BLK_DRTY
            # The dirty cache supplies the block and memory is updated
            # during the same transfer; the owner's line becomes VALID.
            ops.append(write_back())
            self._caches[owner].put(block, WriteOnceState.VALID)
        else:
            event = EventType.RM_BLK_CLN
            ops.append(mem_access())
            # A RESERVED holder observed the snooped read: it is no
            # longer the sole copy and demotes to VALID.
            for other in self._other_holders(block, cache):
                if self._caches[other].get(block) is WriteOnceState.RESERVED:
                    self._caches[other].put(block, WriteOnceState.VALID)
        self._install(cache, block, WriteOnceState.VALID, ops)
        return ProtocolResult(event, tuple(ops))

    def on_write(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data write; see :meth:`CoherenceProtocol.on_write`."""
        self._check_cache_index(cache)
        line = self._caches[cache].get(block)

        if line is WriteOnceState.DIRTY:
            self._caches[cache].touch(block)
            return RESULT_WH_BLK_DRTY
        if line is WriteOnceState.RESERVED:
            # Second write: purely local, the line becomes dirty.
            self._caches[cache].put(block, WriteOnceState.DIRTY)
            return RESULT_WH_BLK_DRTY
        if line is WriteOnceState.VALID:
            # The write-once: write the word through to memory; every
            # snooping cache invalidates its copy for free.
            others = self._other_holders(block, cache)
            for other in others:
                self._caches[other].evict(block)
            self._caches[cache].put(block, WriteOnceState.RESERVED)
            return ProtocolResult(
                EventType.WH_BLK_CLN,
                (write_word(),),
                clean_write_sharers=len(others),
            )

        # Write miss: fetch the block with intent to modify; other
        # copies are invalidated via snooping during the fetch.
        ops: list = []
        if first_ref:
            self._install(cache, block, WriteOnceState.DIRTY, ops)
            return ProtocolResult(EventType.WM_FIRST_REF, tuple(ops))

        owner = self._dirty_owner(block)
        others = self._other_holders(block, cache)
        if owner is not None:
            event = EventType.WM_BLK_DRTY
            ops.append(write_back())
        else:
            event = EventType.WM_BLK_CLN
            ops.append(mem_access())
        for other in others:
            self._caches[other].evict(block)
        self._install(cache, block, WriteOnceState.DIRTY, ops)
        return ProtocolResult(
            event,
            tuple(ops),
            clean_write_sharers=None if owner is not None else len(others),
        )
