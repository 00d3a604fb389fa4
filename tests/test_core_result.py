"""SimulationResult accumulation, pricing, and merging."""

import pytest

from repro.core.result import SimulationResult, merge_results
from repro.cost.accounting import CostCategory
from repro.cost.bus import PAPER_NON_PIPELINED, PAPER_PIPELINED
from repro.protocols.events import (
    EventType,
    ProtocolResult,
    dir_check,
    invalidate,
    mem_access,
    write_back,
)


def build_result():
    result = SimulationResult(scheme="test", trace_name="t")
    result.record_instructions(1)
    result.record_batch(ProtocolResult(EventType.RD_HIT), 1)
    result.record_batch(
        ProtocolResult(EventType.RM_BLK_CLN, (mem_access(),)), 1
    )
    result.record_batch(
        ProtocolResult(
            EventType.WH_BLK_CLN,
            (dir_check(), invalidate(2)),
            clean_write_sharers=2,
        ),
        1,
    )
    result.record_batch(
        ProtocolResult(EventType.RM_BLK_DRTY, (write_back(),)), 1
    )
    return result


def test_totals_and_transactions():
    result = build_result()
    assert result.total_refs == 5
    assert result.bus_transactions == 3  # hit and instruction do not count
    assert result.transactions_per_reference() == pytest.approx(0.6)


def test_bus_cycles_per_reference():
    result = build_result()
    # mem 5 + dir 1 + inv 2 + wb 4 = 12 cycles over 5 refs
    assert result.bus_cycles_per_reference(PAPER_PIPELINED) == pytest.approx(2.4)
    # non-pipelined: mem 7 + dir 3 + inv 2 + wb 4 = 16 over 5
    assert result.bus_cycles_per_reference(PAPER_NON_PIPELINED) == pytest.approx(3.2)


def test_breakdown_by_category():
    breakdown = build_result().breakdown_per_reference(PAPER_PIPELINED)
    assert breakdown.get(CostCategory.MEM_ACCESS) == pytest.approx(1.0)
    assert breakdown.get(CostCategory.INVALIDATION) == pytest.approx(0.4)
    assert breakdown.get(CostCategory.DIR_ACCESS) == pytest.approx(0.2)
    assert breakdown.get(CostCategory.WRITE_BACK) == pytest.approx(0.8)


def test_cycles_per_transaction():
    result = build_result()
    assert result.cycles_per_transaction(PAPER_PIPELINED) == pytest.approx(12 / 3)


def test_overhead_q_adds_per_transaction():
    result = build_result()
    base = result.bus_cycles_per_reference(PAPER_PIPELINED)
    with_q = result.cycles_with_overhead(PAPER_PIPELINED, q=1.0)
    assert with_q == pytest.approx(base + 0.6)
    with pytest.raises(ValueError):
        result.cycles_with_overhead(PAPER_PIPELINED, q=-1)


def test_event_cycles_attribution():
    per_event = build_result().event_cycles_per_reference(PAPER_PIPELINED)
    assert per_event[EventType.RM_BLK_CLN] == pytest.approx(1.0)
    assert per_event[EventType.WH_BLK_CLN] == pytest.approx(0.6)
    assert EventType.RD_HIT not in per_event


def test_invalidation_histogram_and_single_fraction():
    result = SimulationResult(scheme="s", trace_name="t")
    for sharers in (0, 0, 1, 3):
        result.record_batch(
            ProtocolResult(EventType.WH_BLK_CLN, (dir_check(),), clean_write_sharers=sharers),
            1,
        )
    distribution = result.invalidation_distribution()
    assert distribution[0] == pytest.approx(0.5)
    assert distribution[3] == pytest.approx(0.25)
    assert result.single_invalidation_fraction() == pytest.approx(0.75)


def test_empty_result_edge_cases():
    result = SimulationResult(scheme="s", trace_name="t")
    assert result.bus_cycles_per_reference(PAPER_PIPELINED) == 0.0
    assert result.transactions_per_reference() == 0.0
    assert result.cycles_per_transaction(PAPER_PIPELINED) == 0.0
    assert result.invalidation_distribution() == {}
    assert result.single_invalidation_fraction() == 0.0


def test_merge_pools_counts():
    a, b = build_result(), build_result()
    b.trace_name = "u"
    merged = merge_results([a, b], name="both")
    assert merged.total_refs == 10
    assert merged.bus_transactions == 6
    assert merged.trace_name == "both"
    assert merged.bus_cycles_per_reference(PAPER_PIPELINED) == pytest.approx(2.4)


def test_merge_rejects_mixed_schemes():
    a = SimulationResult(scheme="a", trace_name="t")
    b = SimulationResult(scheme="b", trace_name="t")
    with pytest.raises(ValueError):
        merge_results([a, b])
    with pytest.raises(ValueError):
        merge_results([])


def test_merge_is_reference_weighted():
    small = SimulationResult(scheme="s", trace_name="small")
    small.record_batch(ProtocolResult(EventType.RM_BLK_CLN, (mem_access(),)), 1)
    big = SimulationResult(scheme="s", trace_name="big")
    for _ in range(9):
        big.record_batch(ProtocolResult(EventType.RD_HIT), 1)
    merged = merge_results([small, big])
    # 5 cycles over 10 refs, not the mean of per-trace costs (5 and 0).
    assert merged.bus_cycles_per_reference(PAPER_PIPELINED) == pytest.approx(0.5)
