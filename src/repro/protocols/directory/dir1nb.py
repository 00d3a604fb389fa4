"""``Dir1NB``: one directory pointer, no broadcast (Section 3).

The most restrictive scheme the paper evaluates: a block may reside in
at most **one** cache at a time, so no inter-cache inconsistency can
ever arise.  The directory entry is a single pointer to the (possibly
absent) holding cache.  On any miss the directory forwards an
invalidation to the current holder — which writes the block back first
if dirty — and the block migrates to the requester.

Cost notes (paper Table 5): the directory lookup is *always* overlapped
with the memory access or write-back that follows, so it never costs
bus cycles; write hits are free because the holder is by construction
the only cache with a copy.
"""

from __future__ import annotations

from repro.memory.cache import InfiniteCache
from repro.memory.directory import LimitedPointerDirectory
from repro.memory.line import LineState
from repro.protocols.base import DirectoryProtocol
from repro.protocols.events import (
    RESULT_RD_HIT,
    RESULT_WH_BLK_DRTY,
    EventType,
    ProtocolResult,
    dir_check_overlapped,
    invalidate,
    mem_access,
    write_back,
)


class Dir1NBProtocol(DirectoryProtocol):
    """Single-pointer, no-broadcast directory protocol."""

    name = "dir1nb"
    max_copies = 1

    def __init__(
        self,
        num_caches: int,
        cache_factory=InfiniteCache,
        dir_capacity: int | None = None,
    ) -> None:
        directory = LimitedPointerDirectory(
            num_caches, num_pointers=1, broadcast_bit=False
        )
        super().__init__(
            num_caches, directory, cache_factory=cache_factory, dir_capacity=dir_capacity
        )

    def _holder_of(self, block: int) -> tuple[int, LineState] | None:
        """Locate the unique cache holding *block*, if any."""
        entry = self._directory.entry(block)
        if not entry.cached or not entry.sharers:
            return None
        holder = next(iter(entry.sharers))
        state = self._caches[holder].get(block)
        if state is None:
            return None
        return holder, state

    def _take_block(
        self, cache: int, block: int, first_ref: bool, install_state: LineState, ops: list
    ) -> tuple[EventType, int]:
        """Move *block* into *cache*, displacing any current holder.

        Returns the event classification of the miss and the number of
        directory entries recalled to make room for the block's entry.
        """
        recalls = self._ensure_directory_capacity(block, ops)
        first_event = (
            EventType.RM_FIRST_REF
            if install_state is LineState.CLEAN
            else EventType.WM_FIRST_REF
        )
        clean_event = (
            EventType.RM_BLK_CLN
            if install_state is LineState.CLEAN
            else EventType.WM_BLK_CLN
        )
        dirty_event = (
            EventType.RM_BLK_DRTY
            if install_state is LineState.CLEAN
            else EventType.WM_BLK_DRTY
        )

        if first_ref:
            event = first_event
        else:
            holder = self._holder_of(block)
            if holder is None:
                # Only reachable with finite caches, where the holder may
                # have silently evicted the block; memory is current.
                event = clean_event
                ops.extend([dir_check_overlapped(), mem_access()])
            else:
                holder_cache, holder_state = holder
                self._caches[holder_cache].evict(block)
                if holder_state is LineState.DIRTY:
                    event = dirty_event
                    # The holder writes back; the requester receives the
                    # data during the transfer (Section 4.3).
                    ops.extend([dir_check_overlapped(), invalidate(1), write_back()])
                    self._directory.note_writeback(block, holder_cache, keep_clean=False)
                else:
                    event = clean_event
                    ops.extend([dir_check_overlapped(), invalidate(1), mem_access()])
                    self._directory.note_invalidated(block, holder_cache)

        self._install(cache, block, install_state, ops)
        if install_state is LineState.DIRTY:
            self._directory.note_dirty_owner(block, cache)
        else:
            self._directory.note_clean_copy(block, cache)
        return event, recalls

    def on_read(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data read; see :meth:`CoherenceProtocol.on_read`."""
        self._check_cache_index(cache)
        if self._caches[cache].get(block) is not None:
            self._caches[cache].touch(block)
            return RESULT_RD_HIT
        ops: list = []
        event, recalls = self._take_block(cache, block, first_ref, LineState.CLEAN, ops)
        return ProtocolResult(event, tuple(ops), directory_recalls=recalls)

    def on_write(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data write; see :meth:`CoherenceProtocol.on_write`."""
        self._check_cache_index(cache)
        line = self._caches[cache].get(block)
        if line is not None:
            # The holder is the sole copy, so the write is purely local:
            # no directory transaction is needed (the holder tracks
            # dirtiness itself and answers flush requests later).
            self._caches[cache].touch(block)
            if line is LineState.DIRTY:
                return RESULT_WH_BLK_DRTY
            self._caches[cache].put(block, LineState.DIRTY)
            self._directory.note_dirty_owner(block, cache)
            return ProtocolResult(EventType.WH_BLK_CLN, clean_write_sharers=0)
        ops: list = []
        event, recalls = self._take_block(cache, block, first_ref, LineState.DIRTY, ops)
        return ProtocolResult(event, tuple(ops), directory_recalls=recalls)
