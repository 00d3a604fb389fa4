"""Exhaustive reachable-state exploration for one block (model checking lite).

Trace-driven simulation only exercises the states a workload happens to
reach.  This module enumerates **every** global state a protocol can
reach for a single block on an n-cache machine — breadth-first over all
(cache, read/write) actions — and validates the coherence invariants in
each one, the way a Murphi-style model checker would.

The search walks the same automaton the simulator runs: an unmemoized
:class:`~repro.protocols.tables.TransitionTable`, whose states are the
protocol's per-block snapshots (per-cache line states, directory entry,
protocol bits) and whose moves the object model fills.  Each reached
state is checked on its representative, a fresh protocol holding only
that state.  State counts are tiny (tens of states for the protocols
here), so the exploration is exhaustive in milliseconds and makes a
strong complement to the randomized property tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial

from repro.core.invariants import InvariantChecker
from repro.errors import ConfigurationError, ProtocolError
from repro.protocols.base import CoherenceProtocol
from repro.protocols.registry import make_protocol
from repro.protocols.tables import TransitionTable

_BLOCK = 0


def default_caches_for(scheme: str, num_caches: int) -> int:
    """Adjust a requested machine size to one the scheme can model.

    The coarse-vector directory encodes sharers in ternary digits over a
    power-of-two machine, so its size rounds up to the next power of
    two; any other scheme takes the size as given.  Shared by the
    ``repro verify`` CLI and the conformance harness so every entry
    point applies the same fixup.
    """
    if scheme == "coarse-vector" and num_caches & (num_caches - 1):
        return 1 << num_caches.bit_length()
    return num_caches


def fingerprint(protocol: CoherenceProtocol):
    """A hashable snapshot of one block's global state.

    The protocol's own per-block snapshot
    (:meth:`~repro.protocols.base.CoherenceProtocol.snapshot_block`),
    the same state the transition tables key by.
    """
    return protocol.snapshot_block(_BLOCK)


@dataclass(frozen=True)
class Transition:
    """One deduplicated protocol transition, from the requester's view.

    Attributes:
        requester_state: the acting cache's line state value before the
            action (None = not cached).
        others: sorted line-state values of the other caches' copies.
        operation: ``"r"`` or ``"w"``.
        first_ref: whether this was the block's first reference.
        event: the Table-4 event the protocol reported.
        ops: bus-operation kinds performed (with counts).
        requester_after: the acting cache's line state value afterwards.
    """

    requester_state: str | None
    others: tuple[str, ...]
    operation: str
    first_ref: bool
    event: str
    ops: tuple[tuple[str, int], ...]
    requester_after: str | None


@dataclass
class ExplorationReport:
    """Outcome of one exhaustive exploration.

    ``rows`` holds the distinct transitions of the actions that passed.
    """

    scheme: str
    num_caches: int
    states: int = 0
    transitions: int = 0
    violations: list[str] = field(default_factory=list)
    rows: set[Transition] = field(default_factory=set, repr=False, compare=False)

    @property
    def clean(self) -> bool:
        """True when every reachable state satisfied the invariants."""
        return not self.violations


def _line(holders: dict, cache: int) -> str | None:
    """*cache*'s line state value in *holders*, None when it holds none."""
    return holders[cache].value if cache in holders else None


def enumerate_transitions(
    scheme: str,
    num_caches: int = 3,
    max_states: int = 100_000,
    **protocol_options,
) -> list[Transition]:
    """Derive a protocol's transition table by exhaustive probing.

    Lists the rows :func:`explore_block_states` finds: each distinct
    (requester state, other copies, action) situation with its
    observable outcome, one row per outcome where hidden state (such
    as adaptive's dead-update count or a coarse vector's groups) gives
    a situation several: an automatically generated, complete protocol
    specification table.  A protocol that fails the search (an
    invariant violation, or an action that raises) has no such table:
    :class:`~repro.errors.ProtocolError` names its first violation.
    """
    report = explore_block_states(
        scheme, num_caches, max_states, **protocol_options
    )
    if report.violations:
        raise ProtocolError(
            f"{scheme}: {len(report.violations)} violation(s), first: "
            f"{report.violations[0]}"
        )
    return sorted(
        report.rows,
        key=lambda t: (
            t.operation, t.first_ref, str(t.requester_state), t.others,
            str(t.requester_after), t.event, t.ops,
        ),
    )


def explore_block_states(
    scheme: str,
    num_caches: int = 3,
    max_states: int = 100_000,
    stop_on_violation: bool = False,
    **protocol_options,
) -> ExplorationReport:
    """Enumerate and validate every reachable single-block global state.

    A breadth-first search over ``(table state, touched)`` nodes, from
    the untouched block (whether the block has been referenced decides
    the first-reference flag of the next action).  Every (cache,
    read/write) action is tried from every node; a state that fails
    the invariants, or an action that raises, is reported and not
    searched further.

    Args:
        scheme: protocol registry name.
        num_caches: machine size (3 suffices to exercise every
            interaction class: requester, owner, bystander).
        max_states: safety bound on the exploration.
        stop_on_violation: abort at the first invariant violation
            instead of collecting all of them.
        protocol_options: forwarded to the protocol factory.
    """
    table = TransitionTable(partial(make_protocol, scheme, num_caches, **protocol_options))
    report = ExplorationReport(scheme=scheme, num_caches=num_caches)
    holders = {0: table.representative(0).holders(_BLOCK)}  # of checked states
    seen = {(0, False)}
    frontier = deque(seen)
    while frontier:
        state, touched = frontier.popleft()
        report.states += 1
        if report.states > max_states:
            raise ConfigurationError(
                f"state space of {scheme!r} exceeded max_states={max_states}"
            )
        first_ref = not touched
        before = holders[state]
        for cache in range(num_caches):
            for operation, code in (("r", 1), ("w", 2)):
                try:
                    after, outcome, _ = table.move(
                        state, (cache << 2) + (code << 1) + first_ref
                    )
                    if after not in holders:
                        representative = table.representative(after)
                        InvariantChecker(representative).check_block(_BLOCK)
                        holders[after] = representative.holders(_BLOCK)
                except Exception as exc:  # collect, don't mask, violations
                    report.violations.append(f"{operation} by cache {cache}: {exc}")
                    if stop_on_violation:
                        return report
                    continue
                report.transitions += 1
                result = table.outcomes[outcome]
                report.rows.add(Transition(
                    requester_state=_line(before, cache),
                    others=tuple(sorted(
                        line.value for other, line in before.items() if other != cache
                    )),
                    operation=operation,
                    first_ref=first_ref,
                    event=result.event.value,
                    ops=tuple((op.kind.value, op.count) for op in result.ops),
                    requester_after=_line(holders[after], cache),
                ))
                if (after, True) not in seen:
                    seen.add((after, True))
                    frontier.append((after, True))
    return report
