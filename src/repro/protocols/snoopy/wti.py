"""Write-Through-With-Invalidate (WTI), Section 3.

The simplest snoopy protocol: every write is transmitted to main
memory (write-through), other caches snoop the bus and invalidate
matching blocks, and memory is therefore always current.  The paper
includes it as the low-performance/low-complexity snoopy extreme.

Its data state-change model is the same multiple-clean-copies model as
``Dir0B`` (the paper notes their event frequencies are identical); the
cost difference comes from the write-through policy.  Snoop-induced
invalidations ride on the write-through bus cycle, so they add no bus
cost of their own.
"""

from __future__ import annotations

from repro.memory.cache import InfiniteCache
from repro.memory.line import LineState
from repro.protocols.base import SnoopyProtocol
from repro.protocols.events import (
    RESULT_RD_HIT,
    EventType,
    ProtocolResult,
    mem_access,
    write_word,
)


class WTIProtocol(SnoopyProtocol):
    """Write-through cache with bus-snooped invalidation."""

    name = "wti"
    writes_through = True

    def __init__(self, num_caches: int, cache_factory=InfiniteCache) -> None:
        super().__init__(num_caches, cache_factory=cache_factory)

    def _other_holders(self, block: int, cache: int) -> list[int]:
        return [
            index
            for index, other in enumerate(self._caches)
            if index != cache and other.get(block) is not None
        ]

    def on_read(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data read; see :meth:`CoherenceProtocol.on_read`."""
        self._check_cache_index(cache)
        if self._caches[cache].get(block) is not None:
            self._caches[cache].touch(block)
            return RESULT_RD_HIT
        ops: list = []
        if first_ref:
            event = EventType.RM_FIRST_REF
        else:
            # Memory is always current under write-through, so every
            # miss is served by memory regardless of other copies.
            event = EventType.RM_BLK_CLN
            ops.append(mem_access())
        self._install(cache, block, LineState.CLEAN, ops)
        return ProtocolResult(event, tuple(ops))

    def on_write(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data write; see :meth:`CoherenceProtocol.on_write`."""
        self._check_cache_index(cache)
        others = self._other_holders(block, cache)
        # Every write goes to memory; snooping caches invalidate their
        # copies for free during the same bus cycle.
        ops: list = [write_word()]
        for other in others:
            self._caches[other].evict(block)

        line = self._caches[cache].get(block)
        if line is not None:
            self._caches[cache].touch(block)
            return ProtocolResult(
                EventType.WH_BLK_CLN, tuple(ops), clean_write_sharers=len(others)
            )
        if first_ref:
            event = EventType.WM_FIRST_REF
        else:
            # Allocate on write miss (the Dir0B state-change model): the
            # block is fetched from (always-current) memory.
            event = EventType.WM_BLK_CLN
            ops.append(mem_access())
        self._install(cache, block, LineState.CLEAN, ops)
        return ProtocolResult(
            event,
            tuple(ops),
            clean_write_sharers=None if first_ref else len(others),
        )
