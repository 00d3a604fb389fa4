"""Base classes for coherence protocol state machines.

A protocol owns the per-cache line states for every cache in the
simulated machine (and, for directory schemes, the directory
organization).  The simulator feeds it data references one at a time
via :meth:`CoherenceProtocol.on_read` / :meth:`CoherenceProtocol.on_write`;
instruction fetches never reach protocols (the paper assumes
instructions cause no coherence traffic, Section 4).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Mapping

from repro.memory.cache import CacheModel, InfiniteCache
from repro.protocols.events import ProtocolResult, invalidate, write_back


class CoherenceProtocol(ABC):
    """Interface every coherence protocol implements.

    Class attributes (overridden per protocol) describe the protocol's
    invariants so the generic checker in
    :mod:`repro.core.invariants` can validate them:

    * ``name`` — registry identifier (e.g. ``"dir1nb"``).
    * ``max_copies`` — maximum simultaneous cached copies of one block
      allowed by the state-change model (None = unbounded).
    * ``writes_through`` — True if memory is always current (WTI).
    * ``update_based`` — True for update (non-invalidating) protocols.
    """

    name: str = "abstract"
    max_copies: int | None = None
    writes_through: bool = False
    update_based: bool = False

    def __init__(self, num_caches: int, cache_factory=InfiniteCache) -> None:
        if num_caches < 1:
            raise ValueError(f"num_caches must be >= 1, got {num_caches}")
        self._num_caches = num_caches
        self._caches: list[CacheModel] = [cache_factory() for _ in range(num_caches)]

    @property
    def num_caches(self) -> int:
        """Number of caches in the machine."""
        return self._num_caches

    def _check_cache_index(self, cache: int) -> None:
        if not 0 <= cache < self._num_caches:
            raise ValueError(
                f"cache index {cache} out of range [0, {self._num_caches})"
            )

    @abstractmethod
    def on_read(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Process a data read of *block* by *cache*.

        *first_ref* is True when no data reference in the trace has
        touched this block before; the protocol must classify it as a
        first-reference miss (charged zero bus cycles, Section 4).
        """

    @abstractmethod
    def on_write(self, cache: int, block: int, first_ref: bool) -> ProtocolResult:
        """Process a data write of *block* by *cache*."""

    def holders(self, block: int) -> Mapping[int, object]:
        """Map of cache index -> line state for caches holding *block*.

        Used by invariant checking and tests; the default walks the
        per-cache line maps.
        """
        found = {}
        for index, cache in enumerate(self._caches):
            state = cache.get(block)
            if state is not None:
                found[index] = state
        return found

    def tracked_blocks(self) -> set[int]:
        """Every block currently resident in at least one cache."""
        blocks: set[int] = set()
        for cache in self._caches:
            blocks.update(cache.blocks())
        return blocks

    def cache_contents(self, cache: int) -> dict[int, object]:
        """Snapshot of one cache's block -> state map (for tests)."""
        self._check_cache_index(cache)
        return {block: self._caches[cache].get(block) for block in self._caches[cache].blocks()}

    # -- finite capacity -------------------------------------------------

    def _install(self, cache: int, block: int, state, ops: list) -> None:
        """Put a line for *block* into *cache*.

        The only way a protocol adds a line to a cache, so every line a
        finite cache displaces reaches :meth:`_evicted`.
        """
        victim = self._caches[cache].put(block, state)
        if victim is not None:
            self._evicted(cache, victim[0], victim[1], ops)

    def _evicted(self, cache: int, block: int, state, ops: list) -> None:
        """*cache* dropped its *state* copy of *block* to make room.

        The one victim hook: a dirty copy is written back (its op joins
        the referencing outcome's *ops*).
        """
        if state.is_dirty:
            ops.append(write_back())

    # -- per-block state -------------------------------------------------

    def _block_maps(self) -> list[dict]:
        """The dicts, keyed by block, holding per-block state outside
        the caches (directory entries, protocol bits).

        Their values are immutable, so snapshots can share them.
        """
        return []

    def snapshot_block(self, block: int) -> tuple:
        """Everything the machine holds about *block*, as one hashable value.

        Each cache's line state (None when absent), then each block
        map's entry (None when absent).  This is the one definition of a
        block's state: the transition tables
        (:mod:`repro.protocols.tables`) key their states by it, hand
        state across trace segments with it, and the exhaustive
        state-space search (:mod:`repro.core.statespace`) fingerprints
        with it.
        """
        return (
            tuple(cache.get(block) for cache in self._caches),
            tuple(entries.get(block) for entries in self._block_maps()),
        )

    def restore_block(self, block: int, snapshot: tuple) -> None:
        """Make *block*'s state the one :meth:`snapshot_block` returned."""
        lines, entries = snapshot
        for cache, line in zip(self._caches, lines):
            if line is None:
                cache.evict(block)
            else:
                cache.put(block, line)
        for stored, entry in zip(self._block_maps(), entries):
            if entry is None:
                stored.pop(block, None)
            else:
                stored[block] = entry

    def known_blocks(self) -> set[int]:
        """Every block that some cache or block map holds state for."""
        blocks = self.tracked_blocks()
        for entries in self._block_maps():
            blocks.update(entries)
        return blocks


class SnoopyProtocol(CoherenceProtocol):
    """Marker base class for bus-snooping protocols (WTI, Dragon)."""

    scheme_kind = "snoopy"


class DirectoryProtocol(CoherenceProtocol):
    """Base class for directory protocols; adds the directory organization.

    Args:
        dir_capacity: maximum number of blocks the directory can track
            at once (a sparse-directory entry bound).  When the bound is
            hit, the least-recently-consulted entry is *recalled*: its
            cached copies are invalidated (a dirty copy is written back
            first) so the entry can be reused.  ``None`` — the paper's
            model — tracks every block ever referenced.
    """

    scheme_kind = "directory"

    def __init__(
        self,
        num_caches: int,
        directory,
        cache_factory=InfiniteCache,
        dir_capacity: int | None = None,
    ) -> None:
        super().__init__(num_caches, cache_factory=cache_factory)
        self._directory = directory
        if dir_capacity is not None and dir_capacity < 1:
            raise ValueError(f"dir_capacity must be >= 1, got {dir_capacity}")
        self.dir_capacity = dir_capacity
        # Entry recency, least-recently-consulted first.  Only consulted
        # (and only populated) when dir_capacity is bounded.
        self._dir_lru: OrderedDict[int, None] = OrderedDict()

    @property
    def directory(self):
        """The directory organization backing this protocol."""
        return self._directory

    def directory_bits_per_block(self) -> int:
        """Storage cost of this protocol's directory (Section 6)."""
        return self._directory.bits_per_block()

    def _block_maps(self) -> list[dict]:
        return self._directory.block_maps()

    def _evicted(self, cache: int, block: int, state, ops: list) -> None:
        """Write a dirty victim back and tell the directory the copy left."""
        super()._evicted(cache, block, state, ops)
        if state.is_dirty:
            self._directory.note_writeback(block, cache, keep_clean=False)
        else:
            self._directory.note_invalidated(block, cache)

    # -- finite directory capacity (sparse-directory extension) --------

    def _touch_directory(self, block: int) -> None:
        """Refresh *block*'s entry recency on a directory consultation."""
        if self.dir_capacity is None:
            return
        if block in self._dir_lru:
            self._dir_lru.move_to_end(block)

    def _ensure_directory_capacity(self, block: int, ops: list) -> int:
        """Allocate a directory entry for *block*, recalling as needed.

        Returns the number of entries recalled (evicted while still
        holding cached copies).  Entries whose copies have all left the
        caches are reclaimed silently.  Bus operations for recalls
        (write-backs, invalidation messages) are appended to *ops*.
        """
        if self.dir_capacity is None:
            return 0
        lru = self._dir_lru
        if block in lru:
            lru.move_to_end(block)
            return 0
        recalls = 0
        while len(lru) >= self.dir_capacity:
            victim, _ = lru.popitem(last=False)
            if self._recall_block(victim, ops):
                recalls += 1
        lru[block] = None
        return recalls

    def _recall_block(self, victim: int, ops: list) -> bool:
        """Invalidate every cached copy of *victim* and clear its entry.

        A dirty copy is written back first.  Returns True when any copy
        was actually displaced (a stale, holder-less entry reclaims for
        free).
        """
        holders = [
            (index, state)
            for index, cache in enumerate(self._caches)
            if (state := cache.get(victim)) is not None
        ]
        if not holders:
            self._directory.note_all_invalidated(victim)
            return False
        dirty_owner = next(
            (index for index, state in holders if getattr(state, "is_dirty", False)),
            None,
        )
        if dirty_owner is not None:
            ops.append(write_back())
            self._directory.note_writeback(victim, dirty_owner, keep_clean=False)
        clean_holders = [index for index, _ in holders if index != dirty_owner]
        if clean_holders:
            ops.append(invalidate(len(clean_holders)))
        for index, _ in holders:
            self._caches[index].evict(victim)
        self._directory.note_all_invalidated(victim)
        return True
