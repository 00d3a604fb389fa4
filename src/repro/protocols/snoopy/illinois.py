"""The Illinois protocol (Papamarcos & Patel — the paper's reference [5]).

The canonical MESI write-back invalidation snoopy protocol, added as an
extension comparator: it fixes WTI's write traffic and improves on
write-once with two ideas —

* an **exclusive-clean** state (E): a block fetched when no other cache
  holds it can later be written with *no* bus transaction at all;
* **cache-to-cache supply**: if any cache holds the block, it supplies
  the data instead of memory (a dirty owner also updates memory).

States: INVALID (absence), SHARED, EXCLUSIVE (clean, sole copy),
MODIFIED (dirty, sole copy).
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
    broadcast_invalidate,
    cache_access,
    mem_access,
    write_back,
)


class MESIState(enum.Enum):
    """Illinois/MESI line states (INVALID is represented by absence)."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"
    MODIFIED = "modified"

    @property
    def is_dirty(self) -> bool:
        """True when memory is stale with respect to this line."""
        return self is MESIState.MODIFIED

    @property
    def is_exclusive(self) -> bool:
        """True when this state guarantees the sole cached copy."""
        return self in (MESIState.EXCLUSIVE, MESIState.MODIFIED)


class IllinoisProtocol(SnoopyProtocol):
    """MESI with cache-to-cache supply of clean blocks."""

    name = "illinois"

    def __init__(self, num_caches: int, cache_factory=InfiniteCache) -> None:
        super().__init__(num_caches, cache_factory=cache_factory)

    def _other_holders(self, block: int, cache: int) -> list[int]:
        return [
            index
            for index, other in enumerate(self._caches)
            if index != cache and other.get(block) is not None
        ]

    def _owner_of(self, block: int) -> int | None:
        for index, other in enumerate(self._caches):
            if other.get(block) is MESIState.MODIFIED:
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
            self._install(cache, block, MESIState.EXCLUSIVE, ops)
            return ProtocolResult(EventType.RM_FIRST_REF, tuple(ops))

        others = self._other_holders(block, cache)
        owner = self._owner_of(block)
        if owner is not None:
            event = EventType.RM_BLK_DRTY
            # The owner supplies the block and updates memory (Illinois
            # flushes on supply); both end up SHARED.
            ops.append(write_back())
            self._caches[owner].put(block, MESIState.SHARED)
        elif others:
            event = EventType.RM_BLK_CLN
            # Cache-to-cache supply of the clean block.
            ops.append(cache_access())
            for other in others:
                if self._caches[other].get(block) is MESIState.EXCLUSIVE:
                    self._caches[other].put(block, MESIState.SHARED)
        else:
            event = EventType.RM_BLK_CLN
            ops.append(mem_access())
            self._install(cache, block, MESIState.EXCLUSIVE, ops)
            return ProtocolResult(event, tuple(ops))
        self._install(cache, block, MESIState.SHARED, ops)
        return ProtocolResult(event, tuple(ops))

    def on_write(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data write; see :meth:`CoherenceProtocol.on_write`."""
        self._check_cache_index(cache)
        line = self._caches[cache].get(block)

        if line is MESIState.MODIFIED:
            self._caches[cache].touch(block)
            return RESULT_WH_BLK_DRTY
        if line is MESIState.EXCLUSIVE:
            # The E state's payoff: a silent upgrade.
            self._caches[cache].put(block, MESIState.MODIFIED)
            return RESULT_WH_BLK_DRTY
        if line is MESIState.SHARED:
            others = self._other_holders(block, cache)
            for other in others:
                self._caches[other].evict(block)
            self._caches[cache].put(block, MESIState.MODIFIED)
            return ProtocolResult(
                EventType.WH_BLK_CLN,
                (broadcast_invalidate(),),
                clean_write_sharers=len(others),
            )

        # Write miss: read-with-intent-to-modify.
        ops: list = []
        if first_ref:
            self._install(cache, block, MESIState.MODIFIED, ops)
            return ProtocolResult(EventType.WM_FIRST_REF, tuple(ops))

        others = self._other_holders(block, cache)
        owner = self._owner_of(block)
        if owner is not None:
            event = EventType.WM_BLK_DRTY
            ops.append(write_back())
        elif others:
            event = EventType.WM_BLK_CLN
            ops.append(cache_access())
        else:
            event = EventType.WM_BLK_CLN
            ops.append(mem_access())
        for other in others:
            self._caches[other].evict(block)
        self._install(cache, block, MESIState.MODIFIED, ops)
        return ProtocolResult(
            event,
            tuple(ops),
            clean_write_sharers=None if owner is not None else len(others),
        )
