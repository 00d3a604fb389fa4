"""The Dragon update protocol (Section 3) [McCreight 84].

Dragon maintains coherence by **updating** stale copies rather than
invalidating them: writes to shared blocks broadcast the new word on
the bus and every holder updates in place.  A special "shared" bus line
tells a writer whether any other cache holds the block, so writes to
unshared blocks stay local.  Under infinite caches a block, once
loaded, remains in the cache forever — Dragon's misses are the *native*
miss rate, and its bus traffic is dominated by write updates
(``wh-distrib``).  The paper treats Dragon as the best-performing
snoopy scheme.
"""

from __future__ import annotations

from repro.memory.cache import InfiniteCache
from repro.memory.line import DragonLineState
from repro.protocols.base import SnoopyProtocol
from repro.protocols.events import (
    RESULT_RD_HIT,
    RESULT_WH_DISTRIB,
    RESULT_WH_LOCAL,
    EventType,
    ProtocolResult,
    cache_access,
    mem_access,
    write_word,
)


class DragonProtocol(SnoopyProtocol):
    """Four-state Dragon write-update snoopy protocol."""

    name = "dragon"
    update_based = True

    def __init__(self, num_caches: int, cache_factory=InfiniteCache) -> None:
        super().__init__(num_caches, cache_factory=cache_factory)

    def _other_holders(self, block: int, cache: int) -> list[int]:
        return [
            index
            for index, other in enumerate(self._caches)
            if index != cache and other.get(block) is not None
        ]

    def _owner_of(self, block: int) -> int | None:
        """The cache responsible for supplying *block* (dirty owner)."""
        for index, cache in enumerate(self._caches):
            state = cache.get(block)
            if state is not None and state.is_owner:
                return index
        return None

    def _demote_to_shared(self, holders: list[int], block: int) -> None:
        """Mark existing holders shared when a new cache joins."""
        for holder in holders:
            state = self._caches[holder].get(block)
            if state is DragonLineState.VALID_EXCLUSIVE:
                self._caches[holder].put(block, DragonLineState.SHARED_CLEAN)
            elif state is DragonLineState.DIRTY:
                self._caches[holder].put(block, DragonLineState.SHARED_DIRTY)

    def on_read(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data read; see :meth:`CoherenceProtocol.on_read`."""
        self._check_cache_index(cache)
        if self._caches[cache].get(block) is not None:
            self._caches[cache].touch(block)
            return RESULT_RD_HIT

        ops: list = []
        if first_ref:
            self._install(cache, block, DragonLineState.VALID_EXCLUSIVE, ops)
            return ProtocolResult(EventType.RM_FIRST_REF, tuple(ops))

        holders = self._other_holders(block, cache)
        owner = self._owner_of(block)
        if owner is not None:
            # The owning cache supplies the block directly.
            event = EventType.RM_BLK_DRTY
            ops.append(cache_access())
        elif holders:
            event = EventType.RM_BLK_CLN
            ops.append(mem_access())
        else:
            # Only reachable with finite caches (no invalidations exist
            # to empty all copies under infinite caches).
            event = EventType.RM_BLK_CLN
            ops.append(mem_access())
            self._install(cache, block, DragonLineState.VALID_EXCLUSIVE, ops)
            return ProtocolResult(event, tuple(ops))
        self._demote_to_shared(holders, block)
        self._install(cache, block, DragonLineState.SHARED_CLEAN, ops)
        return ProtocolResult(event, tuple(ops))

    def on_write(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data write; see :meth:`CoherenceProtocol.on_write`."""
        self._check_cache_index(cache)
        line = self._caches[cache].get(block)
        if line is not None:
            self._caches[cache].touch(block)
            others = self._other_holders(block, cache)
            if not others:
                # The "shared" bus line is clear: the write stays local.
                self._caches[cache].put(block, DragonLineState.DIRTY)
                return RESULT_WH_LOCAL
            # Write update broadcast: other copies are refreshed in
            # place; this cache becomes the owner.
            for other in others:
                other_state = self._caches[other].get(block)
                if other_state is not None and other_state.is_owner:
                    self._caches[other].put(block, DragonLineState.SHARED_CLEAN)
            self._caches[cache].put(block, DragonLineState.SHARED_DIRTY)
            return RESULT_WH_DISTRIB

        ops: list = []
        if first_ref:
            self._install(cache, block, DragonLineState.DIRTY, ops)
            return ProtocolResult(EventType.WM_FIRST_REF, tuple(ops))

        holders = self._other_holders(block, cache)
        owner = self._owner_of(block)
        if owner is not None:
            event = EventType.WM_BLK_DRTY
            ops.append(cache_access())
            self._caches[owner].put(block, DragonLineState.SHARED_CLEAN)
        elif holders:
            event = EventType.WM_BLK_CLN
            ops.append(mem_access())
        else:
            event = EventType.WM_BLK_CLN
            ops.append(mem_access())
            self._install(cache, block, DragonLineState.DIRTY, ops)
            return ProtocolResult(event, tuple(ops))
        # The freshly written word is distributed to the other holders.
        ops.append(write_word())
        self._demote_to_shared(holders, block)
        self._install(cache, block, DragonLineState.SHARED_DIRTY, ops)
        return ProtocolResult(event, tuple(ops))
