"""The ``kernel_run`` contract, kept by the transition tables.

``repro.core.simulator.kernel_run`` is the simulator's fast path: it
runs a trace on the per-block transition tables
(:mod:`repro.protocols.tables`) for every stock protocol, on infinite
caches and uniform finite caches alike.  The contract is strict
bit-identity with the object model plus a guarantee that it *refuses*
(returns None, state untouched) whenever the protocol, caches, or live
state fall outside what the tables take — so wrappers, subclassed or
mixed caches, bounded directories, and mutation-tested variants always
exercise the real state machines.  The all-protocol, all-geometry
differential lives in ``test_table_differential.py``.
"""

import pytest

from conftest import record_loop
from repro.core.simulator import SimulationContext, Simulator, kernel_run
from repro.core.result import merge_results
from repro.errors import ConfigurationError
from repro.memory.cache import FiniteCache
from repro.protocols.registry import available_protocols, make_protocol
from repro.protocols.tables import has_table
from repro.trace.columnar import ColumnarTrace
from repro.workloads.registry import make_trace

#: The paper's four schemes, which get every check of this file.
KERNEL_SCHEMES = ("dir0b", "dir1nb", "wti", "dragon")
TRACE_LENGTH = 6000

#: Each scheme on infinite caches (bare scheme id) and on an evicting
#: finite geometry, so both cache models of the one table get the same
#: checks.
KERNEL_CASES = [
    pytest.param(
        scheme, geometry, id=scheme if geometry is None else f"{scheme}-{geometry}"
    )
    for geometry in (None, "64x2")
    for scheme in KERNEL_SCHEMES
]


def _snapshot(protocol):
    """Every cache's visible line states, for state-equality checks.

    Finite caches keep their residency (per-set LRU) order too.
    """
    return [
        list(cache.items()) if isinstance(cache, FiniteCache) else dict(cache.items())
        for cache in protocol._caches
    ]


@pytest.fixture(scope="module")
def trace():
    return make_trace("pops", length=TRACE_LENGTH, seed=7)


@pytest.fixture(scope="module")
def columnar(trace):
    return ColumnarTrace.from_trace(trace)


@pytest.fixture(scope="module")
def write_heavy():
    # Migratory workloads drive the dirty-owner transitions hardest.
    return ColumnarTrace.from_trace(
        make_trace("thor", length=TRACE_LENGTH, seed=11)
    )


# ----------------------------------------------------------------------
# Engagement: the tables run every stock protocol
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", available_protocols())
def test_kernel_engages_for_stock_protocol(columnar, scheme):
    simulator = Simulator()
    protocol = make_protocol(scheme, num_caches=len(columnar.pids))
    assert has_table(protocol)
    from repro.core.result import SimulationResult

    result = SimulationResult(scheme=protocol.name, trace_name=columnar.name)
    ran = kernel_run(simulator, columnar, protocol, result, SimulationContext())
    assert ran is result  # did not bail to the generic path


# ----------------------------------------------------------------------
# Bit-identity with the record path and the generic columnar loop
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_kernel_matches_record_path(trace, columnar, scheme):
    simulator = Simulator()
    assert simulator.run(columnar, scheme) == record_loop(simulator, trace, scheme)


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_kernel_matches_generic_columnar_loop(columnar, scheme):
    """Same trace, same protocol type: kernel == _run_columnar."""
    from repro.core.result import SimulationResult

    simulator = Simulator()
    num_caches = len(columnar.pids)

    kernel_result = simulator.run(columnar, scheme)

    protocol = make_protocol(scheme, num_caches=num_caches)
    generic = simulator._run_columnar(
        columnar,
        protocol,
        SimulationResult(scheme=protocol.name, trace_name=columnar.name),
        SimulationContext(),
    )
    assert kernel_result == generic


@pytest.mark.parametrize("scheme, geometry", KERNEL_CASES)
def test_kernel_matches_on_write_heavy_trace(write_heavy, scheme, geometry):
    simulator = Simulator()
    assert simulator.run(write_heavy, scheme, geometry=geometry) == record_loop(
        simulator, write_heavy, scheme, geometry=geometry
    )


@pytest.mark.parametrize("scheme, geometry", KERNEL_CASES)
def test_kernel_matches_with_cpu_sharers(trace, columnar, scheme, geometry):
    simulator = Simulator(sharer_key="cpu")
    assert simulator.run(columnar, scheme, geometry=geometry) == record_loop(
        simulator, trace, scheme, geometry=geometry
    )


# ----------------------------------------------------------------------
# Import/export round trips (segmented simulation)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme, geometry", KERNEL_CASES)
def test_kernel_segmented_run_matches_continuous(trace, columnar, scheme, geometry):
    """Checkpoint-shaped execution: one protocol + context, many windows.

    Every window after the first reads in the per-block snapshots the
    previous window wrote back, so this round-trips every block's state
    (lines, directory entries, and under finite caches the LRU sets) at
    odd boundaries.
    """
    simulator = Simulator()
    whole = record_loop(simulator, trace, scheme, geometry=geometry)

    protocol = make_protocol(
        scheme, num_caches=len(columnar.pids), geometry=geometry
    )
    context = SimulationContext()
    parts = []
    for start in range(0, len(columnar), 777):
        segment = columnar.records[start : start + 777]
        parts.append(
            simulator.run(segment, protocol, trace_name=trace.name, context=context)
        )
    total = merge_results(parts, name=trace.name)
    total.scheme = whole.scheme
    assert total == whole


@pytest.mark.parametrize("scheme, geometry", KERNEL_CASES)
def test_kernel_export_matches_object_model_state(columnar, scheme, geometry):
    """After a run, the caches the tables wrote back equal the generic path's."""
    from repro.core.result import SimulationResult

    simulator = Simulator()
    num_caches = len(columnar.pids)

    via_kernel = make_protocol(scheme, num_caches=num_caches, geometry=geometry)
    result = SimulationResult(scheme=via_kernel.name, trace_name=columnar.name)
    ran = kernel_run(simulator, columnar, via_kernel, result, SimulationContext())
    assert ran is result  # the tables engaged

    via_generic = make_protocol(scheme, num_caches=num_caches, geometry=geometry)
    simulator._run_columnar(
        columnar,
        via_generic,
        SimulationResult(scheme=via_generic.name, trace_name=columnar.name),
        SimulationContext(),
    )
    assert _snapshot(via_kernel) == _snapshot(via_generic)


# ----------------------------------------------------------------------
# Refusal: anything outside the verified encoding falls back
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_finite_kernel_engages_for_uniform_geometry(columnar, scheme):
    """Exact FiniteCaches of one geometry run the tables' LRU layer."""
    from repro.core.result import SimulationResult

    simulator = Simulator()
    protocol = make_protocol(
        scheme,
        num_caches=len(columnar.pids),
        cache_factory=lambda: FiniteCache(num_sets=4, associativity=1),
    )
    assert has_table(protocol)
    result = SimulationResult(scheme=protocol.name, trace_name=columnar.name)
    ran = kernel_run(simulator, columnar, protocol, result, SimulationContext())
    assert ran is result


def test_kernel_bails_on_subclassed_finite_cache(columnar):
    """A FiniteCache subclass is outside what the tables take."""

    class TracingFiniteCache(FiniteCache):
        pass

    simulator = Simulator()
    protocol = make_protocol(
        "dir0b",
        num_caches=len(columnar.pids),
        cache_factory=lambda: TracingFiniteCache(num_sets=4, associativity=1),
    )
    before = _snapshot(protocol)
    assert (
        kernel_run(simulator, columnar, protocol, object(), SimulationContext())
        is None
    )
    assert _snapshot(protocol) == before  # refusal leaves state untouched


def test_kernel_bails_on_mixed_geometry(columnar):
    """Caches of different shapes fall back to the generic loop."""
    geometries = iter([(4, 1), (8, 2), (4, 1), (8, 2), (4, 1), (8, 2)])
    simulator = Simulator()
    protocol = make_protocol(
        "dir0b",
        num_caches=len(columnar.pids),
        cache_factory=lambda: FiniteCache(*next(geometries)),
    )
    assert (
        kernel_run(simulator, columnar, protocol, object(), SimulationContext())
        is None
    )


def test_finite_cache_columnar_run_still_correct(trace, columnar):
    """Finite tables and generic record path agree on finite caches."""
    simulator = Simulator()

    def factory():
        return FiniteCache(num_sets=4, associativity=1)

    num_caches = len(columnar.pids)
    fast = simulator.run(
        columnar, make_protocol("dir0b", num_caches, cache_factory=factory)
    )
    slow = record_loop(
        simulator, trace, make_protocol("dir0b", num_caches, cache_factory=factory)
    )
    assert fast == slow


@pytest.mark.parametrize("scheme", ("dir0b", "dir1nb"))
def test_kernel_bails_on_bounded_directory(trace, columnar, scheme):
    """Directory recalls (``dir_capacity``) stay on the generic path.

    Recalls couple blocks, so with infinite caches too the tables must
    refuse rather than ignore the bound.
    """
    protocol = make_protocol(scheme, num_caches=len(columnar.pids), dir_capacity=4)
    before = _snapshot(protocol)
    assert (
        kernel_run(Simulator(), columnar, protocol, object(), SimulationContext())
        is None
    )
    assert _snapshot(protocol) == before

    simulator = Simulator()
    assert simulator.run(columnar, scheme, dir_capacity=4) == record_loop(
        simulator, trace, scheme, dir_capacity=4
    )


def test_kernel_bails_on_unseen_held_block(columnar):
    """A context that has never seen a held block is outside the model."""
    simulator = Simulator()
    protocol = make_protocol("dir0b", num_caches=len(columnar.pids))
    warm_context = SimulationContext()
    simulator.run(columnar, protocol, context=warm_context)

    cold_context = SimulationContext()  # empty seen_blocks, caches warm
    assert (
        kernel_run(simulator, columnar, protocol, object(), cold_context) is None
    )


def test_kernel_bails_on_wrapped_protocol(columnar):
    from repro.runner.faults import SaboteurProtocol

    inner = make_protocol("dir0b", num_caches=len(columnar.pids))
    wrapped = SaboteurProtocol(inner, trigger_after=10**9)
    assert not has_table(wrapped)


def test_invariant_checking_bypasses_kernel(trace, columnar):
    """check_invariants forces the generic loop; results still match."""
    checked = Simulator(check_invariants=100)
    plain = Simulator()
    assert checked.run(columnar, "dir0b") == plain.run(columnar, "dir0b")


# ----------------------------------------------------------------------
# Error parity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_kernel_sharer_overflow_error_matches_generic(columnar, scheme):
    """Too many sharers raises the same ConfigurationError text."""
    from repro.core.result import SimulationResult

    simulator = Simulator()

    with pytest.raises(ConfigurationError) as via_kernel:
        simulator.run(columnar, make_protocol(scheme, num_caches=1))

    protocol = make_protocol(scheme, num_caches=1)
    with pytest.raises(ConfigurationError) as via_generic:
        simulator._run_columnar(
            columnar,
            protocol,
            SimulationResult(scheme=protocol.name, trace_name=columnar.name),
            SimulationContext(),
        )
    assert str(via_kernel.value) == str(via_generic.value)
