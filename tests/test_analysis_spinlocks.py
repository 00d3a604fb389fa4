"""Section 5.2: spin-lock impact experiment."""

import pytest

from repro.analysis.spinlocks import SpinLockImpact, spin_lock_impact, strip_spins
from repro.cost.bus import PAPER_PIPELINED


def test_strip_spins_removes_only_spin_reads(pops_small):
    stripped = strip_spins(pops_small)
    spins = sum(1 for record in pops_small.records if record.spin)
    assert len(stripped) == len(pops_small) - spins
    assert all(not record.spin for record in stripped)
    assert stripped.name == pops_small.name


def test_impact_dataclass_math():
    impact = SpinLockImpact(scheme="dir1nb", with_spins=0.32, without_spins=0.12)
    assert impact.absolute_drop == pytest.approx(0.20)
    assert impact.relative_drop == pytest.approx(0.625)


def test_zero_cost_edge_case():
    impact = SpinLockImpact(scheme="s", with_spins=0.0, without_spins=0.0)
    assert impact.relative_drop == 0.0


def test_dir1nb_improves_dramatically_dir0b_barely(standard_small):
    """The paper's §5.2 result, qualitatively."""
    dir1nb = spin_lock_impact(standard_small, "dir1nb", PAPER_PIPELINED)
    dir0b = spin_lock_impact(standard_small, "dir0b", PAPER_PIPELINED)
    # Dir1NB loses most of its cost (paper: 0.32 -> 0.12, a 62% drop).
    assert dir1nb.relative_drop > 0.4
    # Dir0B barely moves (spins hit in the cache).
    assert abs(dir0b.relative_drop) < 0.15
    # And Dir1NB remains the more expensive scheme even without spins.
    assert dir1nb.without_spins > dir0b.without_spins


def test_strip_spins_filters_columns():
    from repro.trace.columnar import ColumnarTrace
    from repro.workloads.registry import make_trace

    trace = make_trace("pops", length=3000)
    stripped = strip_spins(trace)
    assert trace.columns is not None and stripped.columns is not None
    expected = [r for r in ColumnarTrace.from_trace(trace) if not r.spin]
    assert stripped.records == expected
    assert stripped.description.endswith("(lock spins excluded)")
