"""Runtime coherence-invariant checking.

The protocols are executable state machines; this module validates,
after any reference, that the global cache + directory state still
satisfies the protocol's declared invariants:

* **single writer** — at most one dirty copy of a block anywhere;
* **copy bound** — no more copies than ``protocol.max_copies`` allows;
* **write-through purity** — WTI caches never hold dirty lines;
* **directory agreement** — full-map / limited-pointer directories list
  exactly the holding caches; coarse vectors denote a superset; the
  two-bit states are consistent with the true holder count;
* **Dragon ownership** — at most one owner; sole holders are never in a
  shared state's owner-half inconsistently.

The simulator can run the checker after every data reference (tests do)
or at an interval, through :class:`CheckedProtocol`.
"""

from __future__ import annotations

from repro.errors import InvariantViolation
from repro.memory.cache import FiniteCache
from repro.memory.directory import (
    CoarseVectorDirectory,
    FullMapDirectory,
    LimitedPointerDirectory,
    TwoBitDirectory,
    TwoBitState,
)
from repro.memory.line import LineState
from repro.protocols.base import CoherenceProtocol, DirectoryProtocol


def unwrap_protocol(protocol) -> CoherenceProtocol:
    """Strip protocol-shaped wrappers down to the real protocol instance.

    Instrumentation layers (the value-coherence oracle, fault-injection
    saboteurs) delegate the :class:`CoherenceProtocol` surface but are
    not protocol subclasses themselves, which would silently disable the
    ``isinstance``-gated checks (directory agreement, write-through
    purity on :class:`~repro.memory.line.LineState`).  Wrappers expose
    their wrapped instance as ``protocol`` (the oracle) or ``inner``
    (the saboteur); this follows the chain until it reaches a genuine
    protocol, so ``InvariantChecker(CoherentOracle(p))`` checks exactly
    what ``InvariantChecker(p)`` does.
    """
    seen: set[int] = set()
    while not isinstance(protocol, CoherenceProtocol) and id(protocol) not in seen:
        seen.add(id(protocol))
        inner = protocol.__dict__.get("protocol") or protocol.__dict__.get("inner")
        if inner is None:
            break
        protocol = inner
    return protocol


class InvariantChecker:
    """Checks one protocol instance's global state for consistency.

    Accepts either a protocol or a protocol-shaped wrapper around one
    (see :func:`unwrap_protocol`); checks always run against the real
    protocol so every ``isinstance``-gated invariant participates.
    """

    def __init__(self, protocol: CoherenceProtocol) -> None:
        self._protocol = unwrap_protocol(protocol)
        # Finite caches evict copies the two-bit directory cannot
        # observe, so a holder-less CLEAN_MANY entry is legal there.
        self._allow_unheld_clean_many = any(
            isinstance(cache, FiniteCache)
            for cache in getattr(self._protocol, "_caches", ())
        )

    def check_block(self, block: int) -> None:
        """Validate every invariant for one block; raise on violation."""
        holders = self._protocol.holders(block)
        self._check_dirty_uniqueness(block, holders)
        self._check_copy_bound(block, holders)
        self._check_write_through(block, holders)
        self._check_directory(block, holders)

    def check_all(self) -> None:
        """Validate every block any cache currently holds."""
        for block in self._protocol.tracked_blocks():
            self.check_block(block)

    # ------------------------------------------------------------------

    def _fail(self, block: int, message: str) -> None:
        raise InvariantViolation(
            f"[{self._protocol.name}] block {block:#x}: {message}"
        )

    def _check_dirty_uniqueness(self, block: int, holders) -> None:
        # Duck-typed so protocol-specific state alphabets (Dragon,
        # write-once) participate: any state with a truthy ``is_dirty``
        # marks memory as stale with respect to that line.
        dirty = [
            cache
            for cache, state in holders.items()
            if getattr(state, "is_dirty", False)
        ]
        if len(dirty) > 1:
            self._fail(block, f"multiple dirty owners: {sorted(dirty)}")
        if dirty and not self._protocol.update_based and len(holders) > 1:
            self._fail(
                block,
                f"dirty copy coexists with other copies: holders={sorted(holders)}",
            )

    def _check_copy_bound(self, block: int, holders) -> None:
        bound = self._protocol.max_copies
        if bound is not None and len(holders) > bound:
            self._fail(
                block,
                f"{len(holders)} copies exceed the protocol bound of {bound}",
            )

    def _check_write_through(self, block: int, holders) -> None:
        if not self._protocol.writes_through:
            return
        for cache, state in holders.items():
            if isinstance(state, LineState) and state.is_dirty:
                self._fail(block, f"write-through cache {cache} holds a dirty line")

    def _check_directory(self, block: int, holders) -> None:
        if not isinstance(self._protocol, DirectoryProtocol):
            return
        directory = self._protocol.directory
        holder_set = set(holders)
        if isinstance(directory, (FullMapDirectory, LimitedPointerDirectory)):
            entry = directory.entry(block)
            if entry.sharers is not None and set(entry.sharers) != holder_set:
                self._fail(
                    block,
                    f"directory sharers {sorted(entry.sharers)} != holders {sorted(holder_set)}",
                )
            dirty_holders = {
                cache
                for cache, state in holders.items()
                if isinstance(state, LineState) and state.is_dirty
            }
            if entry.dirty and entry.sharers is not None and not dirty_holders:
                self._fail(block, "directory says dirty but no cache holds it dirty")
            if dirty_holders and not entry.dirty:
                self._fail(block, "a cache holds the block dirty but directory says clean")
        elif isinstance(directory, CoarseVectorDirectory):
            code = directory.code_of(block)
            for cache in holder_set:
                if not code.contains(cache):
                    self._fail(
                        block,
                        f"coarse vector does not cover holder {cache} "
                        f"(digits={code.digits})",
                    )
        elif isinstance(directory, TwoBitDirectory):
            state = directory.state_of(block)
            count = len(holder_set)
            if state is TwoBitState.NOT_CACHED and count != 0:
                self._fail(block, f"directory NOT_CACHED but {count} holders exist")
            if state is TwoBitState.CLEAN_ONE and count != 1:
                self._fail(block, f"directory CLEAN_ONE but {count} holders exist")
            if state is TwoBitState.DIRTY_ONE:
                if count != 1:
                    self._fail(block, f"directory DIRTY_ONE but {count} holders exist")
                only_state = next(iter(holders.values()))
                if not (isinstance(only_state, LineState) and only_state.is_dirty):
                    self._fail(block, "directory DIRTY_ONE but the holder's line is clean")
            if (
                state is TwoBitState.CLEAN_MANY
                and count == 0
                and not self._allow_unheld_clean_many
            ):
                # Legal only transiently for a two-bit directory that
                # cannot observe individual evictions; under infinite
                # caches copies never silently vanish, so flag it.
                self._fail(block, "directory CLEAN_MANY but no holders exist")


class CheckedProtocol:
    """A protocol whose every *interval*-th data reference is checked.

    What ``Simulator(check_invariants=N)`` runs, one wrapper per ``run``
    call: ``on_read``/``on_write`` forward to *protocol*, and every
    *interval*-th reference checks the referenced block.  Being no stock
    protocol type, it is refused by the transition tables and runs on
    the generic columnar loop.
    """

    def __init__(self, protocol: CoherenceProtocol, interval: int) -> None:
        self.protocol = protocol  # what unwrap_protocol follows
        self.name = protocol.name
        self.num_caches = protocol.num_caches
        self._check = InvariantChecker(protocol).check_block
        self._interval = self._left = interval

    def _counted(self, outcome, block: int):
        self._left -= 1
        if not self._left:
            self._left = self._interval
            self._check(block)
        return outcome

    def on_read(self, cache: int, block: int, first_ref: bool):
        return self._counted(self.protocol.on_read(cache, block, first_ref), block)

    def on_write(self, cache: int, block: int, first_ref: bool):
        return self._counted(self.protocol.on_write(cache, block, first_ref), block)
