"""Yen & Fu's single-bit refinement of the full-map directory (Section 2).

The central directory is Censier–Feautrier's, unchanged; each *cache*
block additionally carries a **single bit** that is set iff this cache
is the only one in the system holding the block.  A write hit on a
clean block whose single bit is set can proceed without completing a
central directory access.  The price is "extra bus bandwidth consumed
to keep the single bits updated in all the caches": when a block held
by exactly one cache gains a second holder through a memory-supplied
miss, a bus message clears the first holder's single bit.  (Transitions
that already involve the other cache — a dirty flush, an invalidation —
piggyback the bit update on the existing transaction at no extra cost.)

The paper's verdict — the scheme "saves central directory accesses, but
does not reduce the number of bus accesses versus the Censier and
Feautrier protocol" — falls straight out of this model: every saved
``DIR_CHECK`` on a single-holder write hit is bought with roughly one
``SINGLE_BIT_UPDATE`` when the block was first shared.
"""

from __future__ import annotations

from repro.memory.cache import InfiniteCache
from repro.memory.line import LineState
from repro.protocols.directory.dirnnb import DirNNBProtocol
from repro.protocols.events import EventType, ProtocolResult, single_bit_update


class YenFuProtocol(DirNNBProtocol):
    """Censier–Feautrier directory plus per-cache single bits."""

    name = "yenfu"

    def __init__(
        self,
        num_caches: int,
        cache_factory=InfiniteCache,
        dir_capacity: int | None = None,
    ) -> None:
        super().__init__(
            num_caches, cache_factory=cache_factory, dir_capacity=dir_capacity
        )
        # block -> the one cache whose single bit for it is set; a block
        # has at most one set bit, so this is every set bit.
        self._single_of: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Single-bit bookkeeping
    # ------------------------------------------------------------------

    def _block_maps(self) -> list[dict]:
        return super()._block_maps() + [self._single_of]

    def single_bit(self, cache: int, block: int) -> bool:
        """True if *cache*'s copy of *block* carries a set single bit."""
        return self._single_of.get(block) == cache

    def _refresh_bits(self, block: int) -> None:
        """Reconcile single bits with the holder set after a transaction.

        Clearing the bit of a previously-single holder that did not
        participate in the transaction costs one bus message; every
        other adjustment rides on the transaction itself.
        """
        holders = [
            index
            for index in range(self._num_caches)
            if self._caches[index].get(block) is not None
        ]
        if len(holders) == 1:
            self._single_of[block] = holders[0]
        else:
            self._single_of.pop(block, None)

    def _charge_bit_clear_if_needed(
        self, block: int, previously_single: int | None, result: ProtocolResult
    ) -> ProtocolResult:
        """Add the bus message that clears a bystander's single bit."""
        if previously_single is None:
            return result
        holders = self.holders(block)
        if previously_single not in holders or len(holders) < 2:
            # The old holder lost its copy (invalidated: rode along) or
            # is still alone: no clearing message needed.
            return result
        if result.event is EventType.RM_BLK_DRTY:
            # The flush transaction already involved that cache.
            return result
        return ProtocolResult(
            result.event,
            result.ops + (single_bit_update(),),
            clean_write_sharers=result.clean_write_sharers,
            wasted_invalidations=result.wasted_invalidations,
            pointer_evictions=result.pointer_evictions,
            directory_recalls=result.directory_recalls,
        )

    def _sole_holder(self, block: int) -> int | None:
        holders = self.holders(block)
        if len(holders) == 1:
            return next(iter(holders))
        return None

    # ------------------------------------------------------------------

    def on_read(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data read; see :meth:`CoherenceProtocol.on_read`."""
        previously_single = self._sole_holder(block)
        result = super().on_read(cache, block, first_ref)
        result = self._charge_bit_clear_if_needed(block, previously_single, result)
        self._refresh_bits(block)
        return result

    def on_write(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data write; see :meth:`CoherenceProtocol.on_write`."""
        line = self._caches[cache].get(block)
        if line is LineState.CLEAN and self.single_bit(cache, block):
            # The whole point of the scheme: a set single bit means no
            # other copy exists, so the write proceeds with no central
            # directory access on the critical path.
            self._caches[cache].put(block, LineState.DIRTY)
            self._directory.note_dirty_owner(block, cache)
            result = ProtocolResult(
                EventType.WH_BLK_CLN, (), clean_write_sharers=0
            )
            self._refresh_bits(block)
            return result
        previously_single = self._sole_holder(block)
        result = super().on_write(cache, block, first_ref)
        if previously_single is not None and previously_single == cache:
            previously_single = None  # the writer itself: no bystander
        result = self._charge_bit_clear_if_needed(block, previously_single, result)
        self._refresh_bits(block)
        return result

    def directory_bits_per_block(self) -> int:
        """Full map storage; the single bits live in the caches."""
        return self._directory.bits_per_block()
