"""Finite↔infinite differential harness (the capacity extension's proof).

Two guarantees make finite capacity a trustworthy sweep axis:

* **ample capacity is invisible** — for every registered protocol, a
  finite cache whose capacity covers the trace's whole block footprint
  (and whose sets never overflow) produces a result digest-identical to
  the infinite-cache run, on every execution backend (serial record
  path, columnar/kernel fast path, pooled multiprocess sweep, and
  chunk-streamed ``.ctrc``);
* **scarce capacity only adds cost** — shrinking a nested
  fully-associative geometry never lowers bus cycles per reference, and
  every finite cost is bounded below by the infinite (pure coherence)
  cost.
"""

from __future__ import annotations

import pytest

from conftest import record_loop
from repro.core.simulator import Simulator
from repro.cost.bus import pipelined_bus
from repro.memory.geometry import CacheGeometry
from repro.protocols.registry import available_protocols
from repro.runner.checkpoint import result_to_json
from repro.trace.columnar import ColumnarTrace
from repro.workloads.registry import make_trace

ALL_SCHEMES = available_protocols()
TRACE_LENGTH = 4000


@pytest.fixture(scope="module")
def trace():
    return make_trace("pops", length=TRACE_LENGTH, seed=5)


@pytest.fixture(scope="module")
def columnar(trace):
    return ColumnarTrace.from_trace(trace)


@pytest.fixture(scope="module")
def ample(trace):
    """A fully-associative geometry covering the whole block footprint.

    One set whose associativity exceeds the distinct-block count: LRU
    can never evict, so the finite machinery must be a perfect no-op.
    """
    simulator = Simulator()
    shift = simulator.block_mapper.offset_bits
    addresses = ColumnarTrace.from_trace(trace).address
    footprint = len({address >> shift for address in addresses})
    return CacheGeometry(lines=footprint + 1, assoc=footprint + 1)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_ample_capacity_is_digest_identical(trace, ample, scheme):
    """Capacity >= footprint: finite digest == infinite digest."""
    simulator = Simulator()
    infinite = record_loop(simulator, trace, scheme)
    finite = record_loop(simulator, trace, scheme, geometry=ample.canonical())
    assert result_to_json(finite) == result_to_json(infinite)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_ample_capacity_identical_on_columnar_backend(columnar, ample, scheme):
    """The columnar path (kernels where they exist) agrees too."""
    simulator = Simulator()
    infinite = simulator.run(columnar, scheme)
    finite = simulator.run(columnar, scheme, geometry=ample.canonical())
    assert result_to_json(finite) == result_to_json(infinite)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_ample_capacity_identical_on_streaming_backend(
    trace, ample, scheme, tmp_path
):
    """Chunk-streamed .ctrc simulation preserves the identity."""
    from repro.store import ChunkedTrace, pack_trace

    simulator = Simulator()
    path = tmp_path / "finite.ctrc"
    pack_trace(trace, path, chunk_records=700)
    with ChunkedTrace(path) as chunked:
        finite = simulator.run(chunked, scheme, geometry=ample.canonical())
    infinite = record_loop(simulator, trace, scheme)
    assert result_to_json(finite) == result_to_json(infinite)


def test_ample_capacity_identical_on_pooled_backend(trace, ample):
    """The multiprocess sweep round-trips finite cells bit-identically."""
    from repro.runner.resilient import ResilientExperiment

    suffix = f"@{ample.canonical()}"
    schemes = list(ALL_SCHEMES) + [f"{name}{suffix}" for name in ALL_SCHEMES]
    outcome = ResilientExperiment(traces=[trace], schemes=schemes, jobs=2).run()
    assert not outcome.all_failures()
    for name in ALL_SCHEMES:
        infinite = outcome.results[name][trace.name]
        finite = outcome.results[f"{name}{suffix}"][trace.name]
        finite_json = result_to_json(finite)
        infinite_json = result_to_json(infinite)
        # The pooled cells carry their per-cell scheme keys; identity is
        # about the measurements, not the label.
        finite_json.pop("scheme", None)
        infinite_json.pop("scheme", None)
        assert finite_json == infinite_json


@pytest.mark.parametrize("scheme", ("dir0b", "dir1nb", "wti", "dragon"))
def test_small_capacity_backends_agree(trace, columnar, scheme, tmp_path):
    """At an evicting geometry, every backend returns the same result."""
    from repro.store import ChunkedTrace, pack_trace

    simulator = Simulator()
    record = record_loop(simulator, trace, scheme, geometry="64x2")
    fast = simulator.run(columnar, scheme, geometry="64x2")
    path = tmp_path / "small.ctrc"
    pack_trace(trace, path, chunk_records=700)
    with ChunkedTrace(path) as chunked:
        streamed = simulator.run(chunked, scheme, geometry="64x2")
    assert result_to_json(fast) == result_to_json(record)
    assert result_to_json(streamed) == result_to_json(record)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_nested_capacity_cost_is_monotone(trace, ample, scheme):
    """Nested fully-associative capacities: cost never rises with size.

    num_sets=1 keeps the geometries strictly nested, so LRU's inclusion
    property applies: every hit at capacity C is a hit at 2C, and every
    extra finite cost comes from replacement misses and write-backs.
    """
    bus = pipelined_bus()
    simulator = Simulator()
    costs = []
    for assoc in (8, 32, 128):
        geometry = CacheGeometry(lines=assoc, assoc=assoc)
        result = simulator.run(trace, scheme, geometry=geometry.canonical())
        costs.append(result.bus_cycles_per_reference(bus))
    infinite = simulator.run(trace, scheme).bus_cycles_per_reference(bus)
    assert costs[0] >= costs[1] >= costs[2] >= infinite


@pytest.mark.parametrize("scheme", ("dir0b", "dir1nb"))
def test_directory_capacity_recalls_add_cost(trace, scheme):
    """A finite directory can only add recall traffic, never remove it."""
    bus = pipelined_bus()
    simulator = Simulator()
    unbounded = simulator.run(trace, scheme, geometry="256x2")
    bounded = simulator.run(trace, scheme, geometry="256x2@dir:32")
    assert bounded.directory_recalls > 0
    assert bounded.bus_cycles_per_reference(bus) >= unbounded.bus_cycles_per_reference(bus)
