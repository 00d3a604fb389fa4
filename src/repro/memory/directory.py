"""Directory organizations (Section 2 and Section 6 of the paper).

A *directory organization* is the main-memory bookkeeping structure a
directory protocol consults to find cached copies of a block.  The
organizations implemented here are exactly those the paper surveys:

* :class:`FullMapDirectory` — Censier & Feautrier: one presence bit per
  cache plus a dirty bit (``DirnNB``).
* :class:`TangDirectory` — Tang's duplicate-tag organization.  It holds
  the same information as the full map, so it shares that
  implementation, but looking up a block requires *searching* the
  duplicate cache directories and its storage cost scales with cache
  (not memory) size.
* :class:`TwoBitDirectory` — Archibald & Baer: two bits per block
  encoding {not cached, clean in exactly one cache, clean in unknown
  number, dirty in exactly one cache}; invalidations rely on broadcast
  (``Dir0B``).
* :class:`LimitedPointerDirectory` — ``DiriB`` / ``DiriNB``: up to *i*
  cache pointers plus a dirty bit, and for the B variant a broadcast
  bit that is set on pointer overflow.
* :class:`CoarseVectorDirectory` — the Section 6 ternary coding:
  ``2*log2(n)`` bits denoting a superset of the sharers.

Every organization answers the same two questions the protocols ask:
*who might hold this block* (:meth:`DirectoryOrganization.plan_invalidation`)
and *is it dirty, and where* (:meth:`DirectoryOrganization.entry`), and
exposes its per-block storage cost for the Section 6 scalability
analysis.
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.memory.coding import CoarseVector


@dataclass(frozen=True)
class DirectoryEntry:
    """A read-only view of one block's directory state.

    Attributes:
        dirty: True if some cache holds the block dirty.
        owner: the dirty cache's index when the organization knows it.
        sharers: the exact sharer set when the organization knows it,
            else None (two-bit directories never know; limited-pointer
            directories lose it on overflow).
        cached: True if the directory believes at least one cache holds
            the block.
    """

    dirty: bool
    owner: int | None
    sharers: frozenset[int] | None
    cached: bool


@dataclass(frozen=True)
class InvalidationPlan:
    """How to reach the caches that must observe an invalidation.

    Attributes:
        targets: exact cache indices to send sequential invalidations to
            (may be empty), or None when the directory cannot enumerate
            holders.
        broadcast: True when a bus broadcast is required instead of (or
            because of the absence of) an enumerable target list.
        wasted_targets: targets known to be a superset of true sharers
            (coarse-vector directories); counted by the scalability
            analysis as wasted invalidation traffic.  Always a subset of
            ``targets``; empty for exact organizations.
    """

    targets: tuple[int, ...] | None
    broadcast: bool
    wasted_targets: tuple[int, ...] = ()

    @property
    def message_count(self) -> int:
        """Number of point-to-point invalidation messages (0 if broadcast)."""
        return 0 if self.targets is None else len(self.targets)


class DirectoryOrganization(ABC):
    """Interface every directory organization implements."""

    def __init__(self, num_caches: int) -> None:
        if num_caches < 1:
            raise ValueError(f"num_caches must be >= 1, got {num_caches}")
        self._num_caches = num_caches

    @property
    def num_caches(self) -> int:
        """Number of caches in the machine."""
        return self._num_caches

    @abstractmethod
    def entry(self, block: int) -> DirectoryEntry:
        """Return the directory's current view of *block*."""

    @abstractmethod
    def note_clean_copy(self, block: int, cache: int) -> None:
        """Record that *cache* obtained a clean copy of *block*."""

    @abstractmethod
    def note_dirty_owner(self, block: int, cache: int) -> None:
        """Record that *cache* is now the sole, dirty holder of *block*."""

    @abstractmethod
    def note_writeback(self, block: int, cache: int, keep_clean: bool) -> None:
        """Record that the dirty owner wrote *block* back to memory.

        If *keep_clean* the owner retains a clean copy; otherwise its
        copy is gone.
        """

    @abstractmethod
    def note_invalidated(self, block: int, cache: int) -> None:
        """Record that *cache*'s copy of *block* was invalidated/evicted."""

    @abstractmethod
    def note_all_invalidated(self, block: int, keep: int | None = None) -> None:
        """Record that every copy was invalidated, except *keep* if given."""

    @abstractmethod
    def plan_invalidation(self, block: int, requester: int) -> InvalidationPlan:
        """Plan how to invalidate all copies of *block* other than *requester*'s."""

    @abstractmethod
    def bits_per_block(self) -> int:
        """Directory storage per memory block, in bits (Section 6)."""

    def block_maps(self) -> list[dict]:
        """The dicts holding this directory's per-block state, keyed by
        block.  Their values are immutable, so a per-block snapshot
        (:meth:`~repro.protocols.base.CoherenceProtocol.snapshot_block`)
        can share them."""
        return []

    def check_capacity(self, block: int, cache: int) -> bool:
        """True if a clean copy for *cache* fits without losing precision.

        Only limited-pointer no-broadcast directories ever return False;
        the protocol must then evict an existing sharer first.
        """
        return True

    def overflow_victim(self, block: int, cache: int) -> int:
        """Pick the sharer to displace when :meth:`check_capacity` is False."""
        raise ProtocolError(
            f"{type(self).__name__} never overflows; no victim for block {block}"
        )


@dataclass(frozen=True)
class _FullMapEntry:
    dirty: bool = False
    holders: frozenset[int] = frozenset()


_NO_FULL_MAP_ENTRY = _FullMapEntry()


class FullMapDirectory(DirectoryOrganization):
    """Censier–Feautrier presence-bit directory (one valid bit per cache)."""

    #: True for organizations whose lookup must search duplicate tags
    #: rather than index by address (Tang).  Affects cost commentary
    #: only; the information content is identical.
    lookup_is_search = False

    def __init__(self, num_caches: int) -> None:
        super().__init__(num_caches)
        self._entries: dict[int, _FullMapEntry] = {}

    def block_maps(self) -> list[dict]:
        """Per-block state; see :class:`DirectoryOrganization`."""
        return [self._entries]

    def entry(self, block: int) -> DirectoryEntry:
        """The directory's current view of one block."""
        stored = self._entries.get(block)
        if stored is None or not stored.holders:
            return DirectoryEntry(dirty=False, owner=None, sharers=frozenset(), cached=False)
        owner = next(iter(stored.holders)) if stored.dirty else None
        return DirectoryEntry(
            dirty=stored.dirty,
            owner=owner,
            sharers=stored.holders,
            cached=True,
        )

    def note_clean_copy(self, block: int, cache: int) -> None:
        """Record a clean copy; see :class:`DirectoryOrganization`."""
        holders = self._entries.get(block, _NO_FULL_MAP_ENTRY).holders
        self._entries[block] = _FullMapEntry(False, holders | {cache})

    def note_dirty_owner(self, block: int, cache: int) -> None:
        """Record the sole dirty owner; see :class:`DirectoryOrganization`."""
        self._entries[block] = _FullMapEntry(True, frozenset((cache,)))

    def note_writeback(self, block: int, cache: int, keep_clean: bool) -> None:
        """Record a write-back; see :class:`DirectoryOrganization`."""
        entry = self._entries.get(block, _NO_FULL_MAP_ENTRY)
        if not entry.dirty or cache not in entry.holders:
            raise ProtocolError(
                f"writeback of block {block} from cache {cache} which is not the dirty owner"
            )
        holders = entry.holders if keep_clean else entry.holders - {cache}
        self._entries[block] = _FullMapEntry(False, holders)

    def note_invalidated(self, block: int, cache: int) -> None:
        """Record one invalidated copy; see :class:`DirectoryOrganization`."""
        entry = self._entries.get(block)
        if entry is not None:
            holders = entry.holders - {cache}
            self._entries[block] = _FullMapEntry(entry.dirty and bool(holders), holders)

    def note_all_invalidated(self, block: int, keep: int | None = None) -> None:
        """Record a full invalidation; see :class:`DirectoryOrganization`."""
        entry = self._entries.get(block)
        if entry is None:
            return
        holders = frozenset((keep,)) if keep in entry.holders else frozenset()
        self._entries[block] = _FullMapEntry(entry.dirty and bool(holders), holders)

    def plan_invalidation(self, block: int, requester: int) -> InvalidationPlan:
        """Plan how to reach all other copies; see :class:`DirectoryOrganization`."""
        stored = self._entries.get(block)
        holders = () if stored is None else tuple(
            sorted(cache for cache in stored.holders if cache != requester)
        )
        return InvalidationPlan(targets=holders, broadcast=False)

    def bits_per_block(self) -> int:
        """n presence bits plus one dirty bit."""
        return self._num_caches + 1


class TangDirectory(FullMapDirectory):
    """Tang's duplicate-tag central directory.

    Information-equivalent to the full map (so the bookkeeping is
    inherited), but each lookup conceptually searches n duplicate cache
    directories, and the storage is a copy of every cache's tags and
    dirty bits rather than per-memory-block presence bits.
    """

    lookup_is_search = True

    def __init__(self, num_caches: int, tag_bits: int = 20, lines_per_cache: int = 4096) -> None:
        super().__init__(num_caches)
        if tag_bits <= 0 or lines_per_cache <= 0:
            raise ValueError("tag_bits and lines_per_cache must be positive")
        self.tag_bits = tag_bits
        self.lines_per_cache = lines_per_cache

    def total_storage_bits(self) -> int:
        """Total duplicate-directory storage: n caches × lines × (tag+dirty)."""
        return self._num_caches * self.lines_per_cache * (self.tag_bits + 1)

    def bits_per_block(self) -> int:
        """Not per-memory-block storage; reported as the full-map equivalent.

        Tang's storage is proportional to total cache size, not memory
        size.  For the Section 6 comparison table we report the
        information-equivalent full-map figure; use
        :meth:`total_storage_bits` for the true duplicate-tag cost.
        """
        return self._num_caches + 1


class TwoBitState(enum.Enum):
    """The four states of the Archibald–Baer two-bit directory entry."""

    NOT_CACHED = "not-cached"
    CLEAN_ONE = "clean-one"
    CLEAN_MANY = "clean-many"
    DIRTY_ONE = "dirty-one"


class TwoBitDirectory(DirectoryOrganization):
    """Archibald–Baer directory: 2 bits per block, no pointers (``Dir0B``).

    The directory never knows *which* caches hold a block, so
    invalidations are broadcast — except that the ``CLEAN_ONE`` state
    lets a writer that itself holds the only copy skip the broadcast
    entirely (the paper's "block clean in exactly one cache" refinement).
    """

    def __init__(self, num_caches: int) -> None:
        super().__init__(num_caches)
        self._states: dict[int, TwoBitState] = {}

    def block_maps(self) -> list[dict]:
        """Per-block state; see :class:`DirectoryOrganization`."""
        return [self._states]

    def state_of(self, block: int) -> TwoBitState:
        """The raw two-bit state of *block* (exposed for tests/analyses)."""
        return self._states.get(block, TwoBitState.NOT_CACHED)

    def entry(self, block: int) -> DirectoryEntry:
        """The directory's current view of one block."""
        state = self.state_of(block)
        return DirectoryEntry(
            dirty=state is TwoBitState.DIRTY_ONE,
            owner=None,
            sharers=None,
            cached=state is not TwoBitState.NOT_CACHED,
        )

    def note_clean_copy(self, block: int, cache: int) -> None:
        """Record a clean copy; see :class:`DirectoryOrganization`."""
        state = self.state_of(block)
        if state in (TwoBitState.NOT_CACHED,):
            self._states[block] = TwoBitState.CLEAN_ONE
        else:
            # A second (or later) clean copy, or a dirty block that was
            # just written back and re-shared: the count is now unknown.
            self._states[block] = TwoBitState.CLEAN_MANY

    def note_dirty_owner(self, block: int, cache: int) -> None:
        """Record the sole dirty owner; see :class:`DirectoryOrganization`."""
        self._states[block] = TwoBitState.DIRTY_ONE

    def note_writeback(self, block: int, cache: int, keep_clean: bool) -> None:
        """Record a write-back; see :class:`DirectoryOrganization`."""
        if self.state_of(block) is not TwoBitState.DIRTY_ONE:
            raise ProtocolError(
                f"writeback of block {block} but directory state is {self.state_of(block)}"
            )
        self._states[block] = (
            TwoBitState.CLEAN_ONE if keep_clean else TwoBitState.NOT_CACHED
        )

    def note_invalidated(self, block: int, cache: int) -> None:
        # Without pointers the directory cannot decrement a sharer
        # count; only a full invalidation resets it.  Individual
        # invalidation of the lone CLEAN_ONE/DIRTY_ONE holder empties it.
        """Record one invalidated copy; see :class:`DirectoryOrganization`."""
        state = self.state_of(block)
        if state in (TwoBitState.CLEAN_ONE, TwoBitState.DIRTY_ONE):
            self._states[block] = TwoBitState.NOT_CACHED

    def note_all_invalidated(self, block: int, keep: int | None = None) -> None:
        """Record a full invalidation; see :class:`DirectoryOrganization`."""
        self._states[block] = (
            TwoBitState.NOT_CACHED if keep is None else TwoBitState.CLEAN_ONE
        )

    def plan_invalidation(self, block: int, requester: int) -> InvalidationPlan:
        """Plan how to reach all other copies; see :class:`DirectoryOrganization`."""
        state = self.state_of(block)
        if state is TwoBitState.NOT_CACHED:
            return InvalidationPlan(targets=(), broadcast=False)
        if state is TwoBitState.CLEAN_ONE:
            # The requester asking to write a block it holds clean must
            # itself be the single holder: nothing to invalidate.  A
            # requester that does NOT hold the block still needs the
            # lone copy removed, which takes a broadcast (no pointer).
            return InvalidationPlan(targets=None, broadcast=True)
        if state is TwoBitState.DIRTY_ONE:
            return InvalidationPlan(targets=None, broadcast=True)
        return InvalidationPlan(targets=None, broadcast=True)

    def plan_write_hit(self, block: int, writer: int) -> InvalidationPlan:
        """Plan for a write *hit* on a clean block by *writer*.

        In ``CLEAN_ONE`` the writer is necessarily the single holder, so
        no invalidation traffic is needed; otherwise broadcast.
        """
        if self.state_of(block) is TwoBitState.CLEAN_ONE:
            return InvalidationPlan(targets=(), broadcast=False)
        return InvalidationPlan(targets=None, broadcast=True)

    def bits_per_block(self) -> int:
        """Directory storage per memory block, in bits (Section 6)."""
        return 2


class PointerEvictionPolicy(enum.Enum):
    """Victim choice when a ``DiriNB`` directory's pointer array is full."""

    FIFO = "fifo"
    LIFO = "lifo"
    LOWEST_INDEX = "lowest-index"


@dataclass(frozen=True)
class _PointerEntry:
    dirty: bool = False
    pointers: tuple[int, ...] = ()  # insertion order
    broadcast: bool = False


_NO_POINTER_ENTRY = _PointerEntry()


class LimitedPointerDirectory(DirectoryOrganization):
    """``DiriB`` / ``DiriNB`` limited-pointer directory (Section 6).

    Keeps up to *i* cache pointers per block plus a dirty bit.  With
    ``broadcast_bit=True`` (the B variant) pointer overflow sets a
    broadcast bit and stops tracking; with ``broadcast_bit=False`` (the
    NB variant) the directory never overflows — the protocol must first
    displace an existing sharer chosen by :meth:`overflow_victim`.
    """

    def __init__(
        self,
        num_caches: int,
        num_pointers: int,
        broadcast_bit: bool,
        eviction_policy: PointerEvictionPolicy = PointerEvictionPolicy.FIFO,
    ) -> None:
        super().__init__(num_caches)
        if num_pointers < 1:
            raise ValueError(f"num_pointers must be >= 1, got {num_pointers}")
        self.num_pointers = num_pointers
        self.broadcast_bit = broadcast_bit
        self.eviction_policy = eviction_policy
        self._entries: dict[int, _PointerEntry] = {}

    def block_maps(self) -> list[dict]:
        """Per-block state; see :class:`DirectoryOrganization`."""
        return [self._entries]

    def entry(self, block: int) -> DirectoryEntry:
        """The directory's current view of one block."""
        stored = self._entries.get(block)
        if stored is None or (not stored.pointers and not stored.broadcast):
            return DirectoryEntry(dirty=False, owner=None, sharers=frozenset(), cached=False)
        sharers = None if stored.broadcast else frozenset(stored.pointers)
        owner = stored.pointers[0] if stored.dirty and stored.pointers else None
        return DirectoryEntry(dirty=stored.dirty, owner=owner, sharers=sharers, cached=True)

    def check_capacity(self, block: int, cache: int) -> bool:
        """Whether a new sharer fits; see :class:`DirectoryOrganization`."""
        if self.broadcast_bit:
            return True
        stored = self._entries.get(block)
        if stored is None or stored.broadcast:
            return True
        if cache in stored.pointers:
            return True
        return len(stored.pointers) < self.num_pointers

    def overflow_victim(self, block: int, cache: int) -> int:
        """Sharer to displace on pointer overflow."""
        stored = self._entries.get(block)
        if stored is None or not stored.pointers:
            raise ProtocolError(f"no pointer victim available for block {block}")
        if self.eviction_policy is PointerEvictionPolicy.FIFO:
            return stored.pointers[0]
        if self.eviction_policy is PointerEvictionPolicy.LIFO:
            return stored.pointers[-1]
        return min(stored.pointers)

    def note_clean_copy(self, block: int, cache: int) -> None:
        """Record a clean copy; see :class:`DirectoryOrganization`."""
        stored = self._entries.get(block, _NO_POINTER_ENTRY)
        pointers, broadcast = stored.pointers, stored.broadcast
        if broadcast or cache in pointers:
            pass
        elif len(pointers) < self.num_pointers:
            pointers += (cache,)
        elif self.broadcast_bit:
            pointers, broadcast = (), True
        else:
            raise ProtocolError(
                f"pointer overflow on no-broadcast directory for block {block}; "
                f"protocol must evict a sharer first"
            )
        self._entries[block] = _PointerEntry(False, pointers, broadcast)

    def note_dirty_owner(self, block: int, cache: int) -> None:
        """Record the sole dirty owner; see :class:`DirectoryOrganization`."""
        self._entries[block] = _PointerEntry(True, (cache,), False)

    def note_writeback(self, block: int, cache: int, keep_clean: bool) -> None:
        """Record a write-back; see :class:`DirectoryOrganization`."""
        stored = self._entries.get(block, _NO_POINTER_ENTRY)
        if not stored.dirty or stored.pointers != (cache,):
            raise ProtocolError(
                f"writeback of block {block} from cache {cache} which is not the dirty owner"
            )
        pointers = stored.pointers if keep_clean else ()
        self._entries[block] = _PointerEntry(False, pointers, stored.broadcast)

    def note_invalidated(self, block: int, cache: int) -> None:
        """Record one invalidated copy; see :class:`DirectoryOrganization`."""
        stored = self._entries.get(block)
        if stored is None or stored.broadcast or cache not in stored.pointers:
            return
        pointers = tuple(pointer for pointer in stored.pointers if pointer != cache)
        self._entries[block] = _PointerEntry(stored.dirty and bool(pointers), pointers)

    def note_all_invalidated(self, block: int, keep: int | None = None) -> None:
        """Record a full invalidation; see :class:`DirectoryOrganization`."""
        stored = self._entries.get(block)
        if stored is None:
            return
        pointers = () if keep is None else (keep,)
        self._entries[block] = _PointerEntry(stored.dirty and bool(pointers), pointers)

    def plan_invalidation(self, block: int, requester: int) -> InvalidationPlan:
        """Plan how to reach all other copies; see :class:`DirectoryOrganization`."""
        stored = self._entries.get(block)
        if stored is None:
            return InvalidationPlan(targets=(), broadcast=False)
        if stored.broadcast:
            return InvalidationPlan(targets=None, broadcast=True)
        targets = tuple(sorted(c for c in stored.pointers if c != requester))
        return InvalidationPlan(targets=targets, broadcast=False)

    def bits_per_block(self) -> int:
        """i pointers of ceil(log2 n) bits + dirty bit (+ broadcast bit)."""
        pointer_bits = max(1, math.ceil(math.log2(max(2, self._num_caches))))
        return self.num_pointers * pointer_bits + 1 + (1 if self.broadcast_bit else 0)


class CoarseVectorDirectory(DirectoryOrganization):
    """Section 6 coarse-vector directory: 2·log2(n)-bit ternary code.

    The stored code always denotes a superset of the true sharers, so
    sequential invalidations go to every denoted cache; the ones that
    hold no copy are *wasted* messages, which the plan reports so the
    scalability analysis can account for them.
    """

    def __init__(self, num_caches: int) -> None:
        super().__init__(num_caches)
        # Fail fast: the ternary code only exists for power-of-two sizes.
        CoarseVector.empty(max(2, num_caches))
        self._codes: dict[int, CoarseVector] = {}
        self._dirty: dict[int, bool] = {}
        # Ground truth kept only to classify wasted invalidations; a
        # real implementation would not have it, and the protocol never
        # uses it for correctness decisions.
        self._true_sharers: dict[int, frozenset[int]] = {}

    def block_maps(self) -> list[dict]:
        """Per-block state; see :class:`DirectoryOrganization`."""
        return [self._codes, self._dirty, self._true_sharers]

    def code_of(self, block: int) -> CoarseVector:
        """The stored ternary code for *block* (exposed for tests)."""
        return self._codes.get(block, CoarseVector.empty(self._num_caches))

    def entry(self, block: int) -> DirectoryEntry:
        """The directory's current view of one block."""
        code = self.code_of(block)
        if code.is_empty:
            return DirectoryEntry(dirty=False, owner=None, sharers=frozenset(), cached=False)
        dirty = self._dirty.get(block, False)
        sharers = frozenset(code.decode()) if code.is_exact_single else None
        owner = next(iter(sharers)) if dirty and sharers else None
        return DirectoryEntry(dirty=dirty, owner=owner, sharers=sharers, cached=True)

    def note_clean_copy(self, block: int, cache: int) -> None:
        """Record a clean copy; see :class:`DirectoryOrganization`."""
        self._codes[block] = self.code_of(block).add(cache)
        self._dirty[block] = False
        self._true_sharers[block] = self._true_sharers.get(block, frozenset()) | {cache}

    def note_dirty_owner(self, block: int, cache: int) -> None:
        """Record the sole dirty owner; see :class:`DirectoryOrganization`."""
        self._codes[block] = CoarseVector.single(self._num_caches, cache)
        self._dirty[block] = True
        self._true_sharers[block] = frozenset((cache,))

    def note_writeback(self, block: int, cache: int, keep_clean: bool) -> None:
        """Record a write-back; see :class:`DirectoryOrganization`."""
        if not self._dirty.get(block, False):
            raise ProtocolError(f"writeback of block {block} which is not dirty")
        self._dirty[block] = False
        if not keep_clean:
            self._codes[block] = CoarseVector.empty(self._num_caches)
            self._true_sharers[block] = frozenset()

    def note_invalidated(self, block: int, cache: int) -> None:
        # The ternary code cannot remove one member; precision is only
        # restored by a full invalidation.  Track ground truth anyway.
        """Record one invalidated copy; see :class:`DirectoryOrganization`."""
        self._true_sharers[block] = self._true_sharers.get(block, frozenset()) - {cache}
        code = self.code_of(block)
        if code.is_exact_single and code.contains(cache):
            self._codes[block] = CoarseVector.empty(self._num_caches)
            self._dirty[block] = False

    def note_all_invalidated(self, block: int, keep: int | None = None) -> None:
        """Record a full invalidation; see :class:`DirectoryOrganization`."""
        if keep is None:
            self._codes[block] = CoarseVector.empty(self._num_caches)
            self._true_sharers[block] = frozenset()
            self._dirty[block] = False
        else:
            self._codes[block] = CoarseVector.single(self._num_caches, keep)
            self._true_sharers[block] = frozenset((keep,))

    def plan_invalidation(self, block: int, requester: int) -> InvalidationPlan:
        """Plan how to reach all other copies; see :class:`DirectoryOrganization`."""
        code = self.code_of(block)
        targets = tuple(sorted(c for c in code.decode() if c != requester))
        true_sharers = self._true_sharers.get(block, frozenset())
        wasted = tuple(c for c in targets if c not in true_sharers)
        return InvalidationPlan(targets=targets, broadcast=False, wasted_targets=wasted)

    def bits_per_block(self) -> int:
        """2 bits per ternary digit × log2(n) digits + dirty bit."""
        return CoarseVector.empty(max(2, _pow2_ceil(self._num_caches))).storage_bits + 1


def _pow2_ceil(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


def directory_bits_per_block(
    organization: str, num_caches: int, num_pointers: int = 1
) -> int:
    """Storage cost in bits/block for a named organization (Section 6 table).

    Supported names: ``full-map``, ``two-bit``, ``limited-b``,
    ``limited-nb``, ``coarse-vector``.
    """
    if organization == "full-map":
        return FullMapDirectory(num_caches).bits_per_block()
    if organization == "two-bit":
        return TwoBitDirectory(num_caches).bits_per_block()
    if organization == "limited-b":
        return LimitedPointerDirectory(num_caches, num_pointers, broadcast_bit=True).bits_per_block()
    if organization == "limited-nb":
        return LimitedPointerDirectory(num_caches, num_pointers, broadcast_bit=False).bits_per_block()
    if organization == "coarse-vector":
        return CoarseVectorDirectory(num_caches).bits_per_block()
    raise ValueError(f"unknown directory organization: {organization!r}")
