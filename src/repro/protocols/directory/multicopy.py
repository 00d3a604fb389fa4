"""Shared machinery for multi-copy directory protocols.

``Dir0B``, ``DirnNB``, ``DiriB``, ``DiriNB``, and the coarse-vector
scheme all use the same **data state-change model** — a block may be
clean in many caches but dirty in exactly one (the paper stresses in
Section 5 that this makes their event frequencies identical).  They
differ only in how the directory locates copies and therefore in what
bus operations an invalidation costs.  This module implements the state
machine once; subclasses supply the directory organization and the
plan-to-bus-ops translation.
"""

from __future__ import annotations

from repro.memory.cache import InfiniteCache
from repro.memory.directory import DirectoryOrganization, InvalidationPlan
from repro.memory.line import LineState
from repro.protocols.base import DirectoryProtocol
from repro.protocols.events import (
    RESULT_RD_HIT,
    RESULT_WH_BLK_DRTY,
    BusOp,
    EventType,
    ProtocolResult,
    broadcast_invalidate,
    dir_check,
    dir_check_overlapped,
    invalidate,
    mem_access,
    write_back,
)


class MultiCopyDirectoryProtocol(DirectoryProtocol):
    """Base for directory protocols with the multiple-clean/single-dirty model."""

    max_copies = None

    def __init__(
        self,
        num_caches: int,
        directory: DirectoryOrganization,
        cache_factory=InfiniteCache,
        dir_capacity: int | None = None,
    ) -> None:
        super().__init__(
            num_caches, directory, cache_factory=cache_factory, dir_capacity=dir_capacity
        )

    # ------------------------------------------------------------------
    # Hooks subclasses may refine
    # ------------------------------------------------------------------

    def _plan_for_write_hit(self, block: int, cache: int) -> InvalidationPlan:
        """Invalidation plan for a write *hit* on a clean block."""
        return self._directory.plan_invalidation(block, cache)

    def _ops_from_plan(self, plan: InvalidationPlan) -> tuple[list[BusOp], int]:
        """Translate an invalidation plan into bus ops.

        Returns ``(ops, wasted_message_count)``.
        """
        if plan.broadcast:
            return [broadcast_invalidate()], 0
        if plan.message_count:
            return [invalidate(plan.message_count)], len(plan.wasted_targets)
        return [], 0

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _dirty_owner(self, block: int) -> int | None:
        """Index of the cache holding *block* dirty, if any (ground truth)."""
        for index, cache in enumerate(self._caches):
            if cache.get(block) is LineState.DIRTY:
                return index
        return None

    def _other_holders(self, block: int, cache: int) -> list[int]:
        """Caches other than *cache* currently holding *block*."""
        return [
            index
            for index, other in enumerate(self._caches)
            if index != cache and other.get(block) is not None
        ]

    def _ensure_pointer_capacity(self, block: int, cache: int, ops: list) -> int:
        """Displace sharers until the directory can track *cache* (DiriNB).

        Returns the number of pointer-eviction invalidations performed.
        """
        evictions = 0
        while not self._directory.check_capacity(block, cache):
            victim = self._directory.overflow_victim(block, cache)
            self._caches[victim].evict(block)
            self._directory.note_invalidated(block, victim)
            ops.append(invalidate(1))
            evictions += 1
        return evictions

    def _grant_clean(self, cache: int, block: int, ops: list) -> int:
        """Install a clean copy at *cache*, enforcing pointer capacity."""
        evictions = self._ensure_pointer_capacity(block, cache, ops)
        self._install(cache, block, LineState.CLEAN, ops)
        self._directory.note_clean_copy(block, cache)
        return evictions

    def _grant_dirty(self, cache: int, block: int, ops: list) -> None:
        """Install a dirty (exclusive) copy at *cache*."""
        self._install(cache, block, LineState.DIRTY, ops)
        self._directory.note_dirty_owner(block, cache)

    # ------------------------------------------------------------------
    # The state machine
    # ------------------------------------------------------------------

    def on_read(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data read; see :meth:`CoherenceProtocol.on_read`."""
        self._check_cache_index(cache)
        if self._caches[cache].get(block) is not None:
            self._caches[cache].touch(block)
            return RESULT_RD_HIT

        ops: list = []
        recalls = self._ensure_directory_capacity(block, ops)
        if first_ref:
            event = EventType.RM_FIRST_REF
        else:
            owner = self._dirty_owner(block)
            if owner is not None:
                event = EventType.RM_BLK_DRTY
                # The owner flushes the dirty block to memory; the
                # requester receives the data during the transfer and
                # the owner retains a clean copy (Censier & Feautrier).
                ops.extend([dir_check_overlapped(), write_back()])
                self._caches[owner].put(block, LineState.CLEAN)
                self._directory.note_writeback(block, owner, keep_clean=True)
            else:
                event = EventType.RM_BLK_CLN
                ops.extend([dir_check_overlapped(), mem_access()])
        evictions = self._grant_clean(cache, block, ops)
        return ProtocolResult(
            event, tuple(ops), pointer_evictions=evictions, directory_recalls=recalls
        )

    def on_write(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Handle a data write; see :meth:`CoherenceProtocol.on_write`."""
        self._check_cache_index(cache)
        line = self._caches[cache].get(block)

        if line is LineState.DIRTY:
            self._caches[cache].touch(block)
            return RESULT_WH_BLK_DRTY

        if line is LineState.CLEAN:
            # Write hit on a clean block: probe the directory, then
            # invalidate every other copy.
            self._touch_directory(block)
            others = self._other_holders(block, cache)
            plan = self._plan_for_write_hit(block, cache)
            inval_ops, wasted = self._ops_from_plan(plan)
            ops = [dir_check()] + inval_ops
            for other in others:
                self._caches[other].evict(block)
            self._directory.note_all_invalidated(block, keep=cache)
            self._caches[cache].put(block, LineState.DIRTY)
            self._directory.note_dirty_owner(block, cache)
            return ProtocolResult(
                EventType.WH_BLK_CLN,
                tuple(ops),
                clean_write_sharers=len(others),
                wasted_invalidations=wasted,
            )

        # Write miss.
        ops = []
        recalls = self._ensure_directory_capacity(block, ops)
        if first_ref:
            self._grant_dirty(cache, block, ops)
            return ProtocolResult(
                EventType.WM_FIRST_REF, tuple(ops), directory_recalls=recalls
            )

        owner = self._dirty_owner(block)
        if owner is not None:
            event = EventType.WM_BLK_DRTY
            plan = self._directory.plan_invalidation(block, cache)
            inval_ops, wasted = self._ops_from_plan(plan)
            # The owner flushes the block (the requester receives the
            # data during the write-back) and its copy is invalidated.
            ops.extend([dir_check_overlapped()])
            ops.extend(inval_ops)
            ops.append(write_back())
            self._caches[owner].evict(block)
            self._directory.note_writeback(block, owner, keep_clean=False)
            clean_write_sharers = None
        else:
            event = EventType.WM_BLK_CLN
            others = self._other_holders(block, cache)
            plan = self._directory.plan_invalidation(block, cache)
            inval_ops, wasted = self._ops_from_plan(plan)
            ops.extend([dir_check_overlapped(), mem_access()])
            ops.extend(inval_ops)
            for other in others:
                self._caches[other].evict(block)
            self._directory.note_all_invalidated(block)
            clean_write_sharers = len(others)
        self._grant_dirty(cache, block, ops)
        return ProtocolResult(
            event,
            tuple(ops),
            clean_write_sharers=clean_write_sharers,
            wasted_invalidations=wasted,
            directory_recalls=recalls,
        )
