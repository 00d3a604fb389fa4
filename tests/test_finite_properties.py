"""Property-based tests for the finite-capacity machinery.

Hypothesis drives random operation sequences through the pieces the
finite↔infinite differential harness relies on:

* :class:`~repro.memory.cache.FiniteCache` obeys set-associative LRU
  exactly (checked against a brute-force reference model);
* directory-capacity protocols keep their sharer bookkeeping
  consistent through evictions and recalls (every reference is
  invariant-checked, and the LRU book never exceeds the bound);
* the transition tables with their LRU layer remain bit-identical to
  the generic object model — results *and* end state — after arbitrary
  reference prefixes, not just the curated workload traces.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.invariants import InvariantChecker
from repro.core.simulator import SimulationContext, Simulator
from repro.memory.cache import FiniteCache
from repro.protocols.registry import available_protocols, make_protocol
from repro.trace.columnar import ColumnarTrace
from repro.trace.record import RefType, TraceRecord
from repro.trace.stream import Trace

NUM_CACHES = 4
NUM_BLOCKS = 12
KERNEL_SCHEMES = ("dir0b", "dir1nb", "wti", "dragon")


# ----------------------------------------------------------------------
# FiniteCache vs a brute-force LRU reference model
# ----------------------------------------------------------------------

cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "touch", "evict"]),
        st.integers(0, 31),
    ),
    min_size=1,
    max_size=120,
)


class _LRUModel:
    """Reference model: per-set python lists, LRU first."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets: list[list[int]] = [[] for _ in range(num_sets)]

    def _set(self, block: int) -> list[int]:
        return self.sets[block & (self.num_sets - 1)]

    def put(self, block: int) -> int | None:
        order = self._set(block)
        victim = None
        if block in order:
            order.remove(block)
        elif len(order) >= self.assoc:
            victim = order.pop(0)
        order.append(block)
        return victim

    def touch(self, block: int) -> None:
        order = self._set(block)
        if block in order:
            order.remove(block)
            order.append(block)

    def evict(self, block: int) -> None:
        order = self._set(block)
        if block in order:
            order.remove(block)


@settings(max_examples=80, deadline=None)
@given(ops=cache_ops, num_sets=st.sampled_from([1, 2, 4]), assoc=st.integers(1, 3))
def test_finite_cache_is_exact_set_associative_lru(ops, num_sets, assoc):
    cache: FiniteCache = FiniteCache(num_sets=num_sets, associativity=assoc)
    model = _LRUModel(num_sets, assoc)
    for op, block in ops:
        if op == "put":
            victim = cache.put(block, "state")
            expected = model.put(block)
            assert (victim[0] if victim else None) == expected
        elif op == "get":
            # get() reads without touching (replacement order unchanged).
            assert (cache.get(block) is not None) == any(
                block in order for order in model.sets
            )
        elif op == "touch":
            cache.touch(block)
            model.touch(block)
        else:
            cache.evict(block)
            model.evict(block)
        # Residency and LRU order agree set by set, at every step.
        assert [list(s) for s in cache._sets] == model.sets
        assert len(cache) <= cache.capacity_blocks


# ----------------------------------------------------------------------
# Directory consistency under finite caches and finite directories
# ----------------------------------------------------------------------

refs_strategy = st.lists(
    st.tuples(
        st.integers(0, NUM_CACHES - 1),
        st.sampled_from(["r", "w"]),
        st.integers(0, NUM_BLOCKS - 1),
    ),
    min_size=1,
    max_size=80,
)


def _drive_checked(protocol, refs):
    checker = InvariantChecker(protocol)
    seen: set[int] = set()
    for cache, op, block in refs:
        first = block not in seen
        seen.add(block)
        if op == "r":
            protocol.on_read(cache, block, first)
        else:
            protocol.on_write(cache, block, first)
        checker.check_block(block)
    checker.check_all()


@settings(max_examples=60, deadline=None)
@given(refs=refs_strategy, scheme=st.sampled_from(KERNEL_SCHEMES))
def test_invariants_hold_with_finite_caches(refs, scheme):
    """Silent evictions never desynchronize caches and directory."""
    protocol = make_protocol(
        scheme,
        NUM_CACHES,
        cache_factory=lambda: FiniteCache(num_sets=2, associativity=2),
    )
    _drive_checked(protocol, refs)


@settings(max_examples=60, deadline=None)
@given(refs=refs_strategy, scheme=st.sampled_from(["dir0b", "dir1nb", "dirnnb"]))
def test_invariants_hold_with_bounded_directory(refs, scheme):
    """Eviction/recall keeps sharer sets exact and the LRU book bounded."""
    protocol = make_protocol(
        scheme,
        NUM_CACHES,
        cache_factory=lambda: FiniteCache(num_sets=2, associativity=2),
        dir_capacity=4,
    )
    _drive_checked(protocol, refs)
    assert len(protocol._dir_lru) <= protocol.dir_capacity
    # Inclusion: every block any cache still holds is directory-tracked.
    held = {
        block
        for index in range(NUM_CACHES)
        for block in protocol.cache_contents(index)
    }
    assert held <= set(protocol._dir_lru)


# ----------------------------------------------------------------------
# Transition tables vs generic object model on random finite prefixes
# ----------------------------------------------------------------------


def _records_from(refs) -> list[TraceRecord]:
    types = {"r": RefType.READ, "w": RefType.WRITE}
    return [
        TraceRecord(cpu=cache, pid=cache, ref_type=types[op], address=block << 4)
        for cache, op, block in refs
    ]


def _snapshot(protocol):
    return [
        protocol.cache_contents(index) for index in range(protocol.num_caches)
    ]


@settings(max_examples=40, deadline=None)
@given(refs=refs_strategy, scheme=st.sampled_from(available_protocols()))
def test_finite_kernel_matches_generic_on_random_prefixes(refs, scheme):
    from repro.core.result import SimulationResult
    from repro.core.simulator import kernel_run

    trace = Trace("prefix", _records_from(refs))
    columnar = ColumnarTrace.from_trace(trace)
    simulator = Simulator()

    def factory():
        return FiniteCache(num_sets=2, associativity=2)

    via_kernel = make_protocol(scheme, NUM_CACHES, cache_factory=factory)
    kernel_result = SimulationResult(scheme=via_kernel.name, trace_name="prefix")
    ran = kernel_run(
        simulator, columnar, via_kernel, kernel_result, SimulationContext()
    )
    assert ran is kernel_result  # the tables engaged

    via_generic = make_protocol(scheme, NUM_CACHES, cache_factory=factory)
    generic_result = simulator._run_columnar(
        columnar,
        via_generic,
        SimulationResult(scheme=via_generic.name, trace_name="prefix"),
        SimulationContext(),
    )
    assert kernel_result == generic_result
    assert _snapshot(via_kernel) == _snapshot(via_generic)
