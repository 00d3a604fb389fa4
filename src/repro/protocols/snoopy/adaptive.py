"""A competitive update/invalidate hybrid (extension beyond the paper).

The paper's evaluation poses update (Dragon) against invalidation
protocols and shows each wins on different sharing patterns: updates
are unbeatable for producer/consumer and false sharing, invalidation
for migratory data.  The natural follow-on — explored in the years
after the paper (competitive snooping, Karlin et al.; adaptive
update/invalidate, Cox & Fowler) — is a protocol that *switches*:

start as Dragon, but let each cache count the updates it has received
for a line since it last read it.  After ``update_limit`` consecutive
unused updates the cache drops its copy (a free, purely local
decision).  Read-mostly data keeps the update behaviour; migratory data
degenerates to exclusive ownership and writes become local.

Implemented here as ``"adaptive"``: Dragon's state machine plus
per-line dead-update counters.
"""

from __future__ import annotations

from repro.memory.cache import InfiniteCache
from repro.memory.line import DragonLineState
from repro.protocols.snoopy.dragon import DragonProtocol
from repro.protocols.events import EventType, ProtocolResult


class AdaptiveProtocol(DragonProtocol):
    """Dragon with competitive self-invalidation of unused copies."""

    name = "adaptive"
    # Self-invalidation makes this no longer a pure update protocol:
    # copies can disappear, so the dirty-exclusivity relaxation still
    # applies (owner + stale-counter copies coexist legally).
    update_based = True

    def __init__(
        self,
        num_caches: int,
        update_limit: int = 4,
        cache_factory=InfiniteCache,
    ) -> None:
        if update_limit < 1:
            raise ValueError(f"update_limit must be >= 1, got {update_limit}")
        super().__init__(num_caches, cache_factory=cache_factory)
        self.update_limit = update_limit
        # block -> per-cache updates received since that cache's last
        # use; a block whose counts are all zero has no entry.
        self._dead_updates: dict[int, tuple[int, ...]] = {}

    def _block_maps(self) -> list[dict]:
        return [self._dead_updates]

    def _set_dead_updates(self, cache: int, block: int, count: int) -> None:
        counts = list(self._dead_updates.get(block, (0,) * self._num_caches))
        counts[cache] = count
        if any(counts):
            self._dead_updates[block] = tuple(counts)
        else:
            self._dead_updates.pop(block, None)

    def _note_local_use(self, cache: int, block: int) -> None:
        counts = self._dead_updates.get(block)
        if counts is not None and counts[cache]:
            self._set_dead_updates(cache, block, 0)

    def _count_update(self, cache: int, block: int) -> bool:
        """Count one received update; True if the copy should be dropped."""
        count = self._dead_updates.get(block, (0,) * self._num_caches)[cache] + 1
        drop = count >= self.update_limit
        self._set_dead_updates(cache, block, 0 if drop else count)
        return drop

    def on_read(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data read; see :meth:`CoherenceProtocol.on_read`."""
        result = super().on_read(cache, block, first_ref)
        self._note_local_use(cache, block)
        return result

    def on_write(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data write; see :meth:`CoherenceProtocol.on_write`."""
        result = super().on_write(cache, block, first_ref)
        self._note_local_use(cache, block)
        if result.event in (
            EventType.WH_DISTRIB,
            EventType.WM_BLK_CLN,
            EventType.WM_BLK_DRTY,
        ):
            # The distributed update reached every other holder; each
            # may competitively drop its copy (free local decision).
            for other in self._other_holders(block, cache):
                if self._count_update(other, block):
                    self._caches[other].evict(block)
            # If everyone dropped out, the writer owns the block alone.
            if not self._other_holders(block, cache):
                self._caches[cache].put(block, DragonLineState.DIRTY)
        return result
