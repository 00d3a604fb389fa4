"""Regeneration functions: one per table/figure of the paper.

Each ``table*``/``figure*``/``section*`` function reproduces one
artifact of the paper's evaluation and returns an :class:`Artifact`
holding both the structured data and an ASCII rendering.  The
:class:`PaperExperiments` driver caches the expensive pieces (trace
generation, the four-scheme simulation sweep) so regenerating every
artifact costs one simulation pass per scheme, exactly as in the paper.

Paper-reported values for each artifact are recorded in
EXPERIMENTS.md alongside the measured ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.breakdown import TABLE5_ROWS, breakdown_fractions, breakdown_table
from repro.analysis.invalidations import invalidation_histogram
from repro.analysis.scalability import (
    broadcast_cost_model,
    directory_storage_table,
    pointer_sweep,
)
from repro.analysis.sensitivity import overhead_model
from repro.analysis.spinlocks import spin_lock_impact
from repro.analysis.system import effective_processor_bound
from repro.analysis.transactions import transaction_costs
from repro.core.experiment import ExperimentResult
from repro.core.result import SimulationResult, merge_results
from repro.core.simulator import Simulator
from repro.cost.bus import non_pipelined_bus, pipelined_bus
from repro.cost.timing import PAPER_TIMING
from repro.engine.core import Engine
from repro.engine.plan import ExecutionPlan
from repro.engine.policies import RetryPolicy
from repro.protocols.events import EventType
from repro.report.figures import (
    bar_chart,
    histogram_chart,
    range_chart,
    stacked_fraction_chart,
)
from repro.report.tables import format_table
from repro.trace.stats import compute_statistics
from repro.workloads.registry import DEFAULT_LENGTH, standard_traces

#: The four schemes of the paper's main evaluation, in its column order.
PAPER_SCHEMES = ("dir1nb", "wti", "dir0b", "dragon")

_SCHEME_TITLES = {
    "dir1nb": "Dir1NB",
    "wti": "WTI",
    "dir0b": "Dir0B",
    "dragon": "Dragon",
    "dirnnb": "DirnNB",
    "berkeley": "Berkeley",
}


@dataclass(frozen=True)
class Artifact:
    """One regenerated table or figure."""

    artifact_id: str
    title: str
    data: object
    text: str

    def __str__(self) -> str:
        return self.text


# Table 4 rows: (label, event or roll-up key, schemes that report it).
_ALL = frozenset(PAPER_SCHEMES)
_TABLE4_ROWS: list[tuple[str, object, frozenset]] = [
    ("instr", EventType.INSTR, _ALL),
    ("read", "read", _ALL),
    ("  rd-hit", EventType.RD_HIT, _ALL),
    ("  rd-miss(rm)", "rm", _ALL),
    ("    rm-blk-cln", EventType.RM_BLK_CLN, frozenset({"dir1nb", "dir0b", "dragon"})),
    ("    rm-blk-drty", EventType.RM_BLK_DRTY, frozenset({"dir1nb", "dir0b", "dragon"})),
    ("  rm-first-ref", EventType.RM_FIRST_REF, _ALL),
    ("write", "write", _ALL),
    ("  wrt-hit(wh)", "wh", _ALL),
    ("    wh-blk-cln", EventType.WH_BLK_CLN, frozenset({"dir0b"})),
    ("    wh-blk-drty", EventType.WH_BLK_DRTY, frozenset({"dir0b"})),
    ("    wh-distrib", EventType.WH_DISTRIB, frozenset({"dragon"})),
    ("    wh-local", EventType.WH_LOCAL, frozenset({"dragon"})),
    ("  wrt-miss(wm)", "wm", _ALL),
    ("    wm-blk-cln", EventType.WM_BLK_CLN, frozenset({"dir1nb", "dir0b", "dragon"})),
    ("    wm-blk-drty", EventType.WM_BLK_DRTY, frozenset({"dir1nb", "dir0b", "dragon"})),
    ("  wm-first-ref", EventType.WM_FIRST_REF, _ALL),
]


class PaperExperiments:
    """Cached driver that regenerates every artifact of the evaluation.

    Args:
        length: synthetic trace length (the paper's traces are ~3.2M
            references; the default scales that down for pure Python).
        simulator: optionally a customized simulator (block size,
            sharing view, invariant checking).
    """

    def __init__(
        self, length: int = DEFAULT_LENGTH, simulator: Simulator | None = None
    ) -> None:
        self.length = length
        self.simulator = simulator or Simulator()
        self.pipelined = pipelined_bus()
        self.non_pipelined = non_pipelined_bus()
        self._traces = None
        self._experiment: ExperimentResult | None = None
        self._extra: dict[str, SimulationResult] = {}

    # ------------------------------------------------------------------
    # Cached inputs
    # ------------------------------------------------------------------

    @property
    def traces(self):
        """The (lazily generated) standard input traces."""
        if self._traces is None:
            self._traces = standard_traces(self.length)
        return self._traces

    @property
    def experiment(self) -> ExperimentResult:
        """The four-scheme x three-trace simulation sweep (fail-fast)."""
        if self._experiment is None:
            engine = Engine(strict=True, retry=RetryPolicy(max_attempts=1))
            self._experiment = engine.run(
                ExecutionPlan(
                    traces=self.traces,
                    schemes=list(PAPER_SCHEMES),
                    simulator=self.simulator,
                )
            )
        return self._experiment

    def combined(self, scheme: str) -> SimulationResult:
        """Pooled three-trace result for one of the paper's schemes."""
        if scheme in PAPER_SCHEMES:
            return self.experiment.combined(scheme)
        if scheme not in self._extra:
            runs = [self.simulator.run(trace, scheme) for trace in self.traces]
            self._extra[scheme] = merge_results(runs)
        return self._extra[scheme]

    def _combined_map(self) -> dict[str, SimulationResult]:
        return {scheme: self.combined(scheme) for scheme in PAPER_SCHEMES}

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def table1(self) -> Artifact:
        """Table 1: timing for fundamental bus operations."""
        rows = PAPER_TIMING.as_table_rows()
        text = format_table(
            ["operation", "cycles"],
            rows,
            title="Table 1: fundamental bus operation timing",
            precision=0,
        )
        return Artifact("table1", "Fundamental bus timing", dict(rows), text)

    def table2(self) -> Artifact:
        """Table 2: per-event bus cycle costs for both bus models."""
        pipe_rows = dict(self.pipelined.as_table_rows())
        nonpipe_rows = dict(self.non_pipelined.as_table_rows())
        rows = [
            (name, pipe_rows[name], nonpipe_rows[name]) for name in pipe_rows
        ]
        text = format_table(
            ["access type", "pipelined", "non-pipelined"],
            rows,
            title="Table 2: bus cycle costs per event",
            precision=0,
        )
        return Artifact(
            "table2",
            "Bus cycle costs",
            {"pipelined": pipe_rows, "non-pipelined": nonpipe_rows},
            text,
        )

    def table3(self) -> Artifact:
        """Table 3: trace characteristics (counts in thousands)."""
        stats = [compute_statistics(trace, trace.name) for trace in self.traces]
        rows = [
            (
                s.name.upper(),
                s.total_refs / 1000.0,
                s.instr_refs / 1000.0,
                s.data_reads / 1000.0,
                s.data_writes / 1000.0,
                s.user_refs / 1000.0,
                s.system_refs / 1000.0,
            )
            for s in stats
        ]
        text = format_table(
            ["Trace", "Refs", "Instr", "DRd", "DWrt", "User", "Sys"],
            rows,
            title="Table 3: trace characteristics (thousands of references)",
            precision=1,
        )
        return Artifact("table3", "Trace characteristics", stats, text)

    def table4(self) -> Artifact:
        """Table 4: event frequencies as % of all references."""
        combined = self._combined_map()
        frequencies = {
            scheme: result.frequencies() for scheme, result in combined.items()
        }
        rows = []
        for label, key, schemes in _TABLE4_ROWS:
            row: list[object] = [label]
            for scheme in PAPER_SCHEMES:
                if scheme not in schemes:
                    row.append(None)
                    continue
                freq = frequencies[scheme]
                if key == "read":
                    value = 100.0 * freq.read_fraction
                elif key == "write":
                    value = 100.0 * freq.write_fraction
                elif key == "rm":
                    value = 100.0 * freq.read_miss_fraction
                elif key == "wm":
                    value = 100.0 * freq.write_miss_fraction
                elif key == "wh":
                    value = 100.0 * freq.write_hit_fraction
                else:
                    value = freq.percent(key)
                row.append(value)
            rows.append(tuple(row))
        text = format_table(
            ["Event"] + [_SCHEME_TITLES[s] for s in PAPER_SCHEMES],
            rows,
            title="Table 4: event frequencies (% of all references)",
            precision=2,
        )
        return Artifact("table4", "Event frequencies", frequencies, text)

    def table5(self) -> Artifact:
        """Table 5: bus cycle breakdown per reference, pipelined bus."""
        combined = self._combined_map()
        table = breakdown_table(combined, self.pipelined)
        rows = []
        for category in TABLE5_ROWS:
            rows.append(
                (category.value,)
                + tuple(table[scheme][category] for scheme in PAPER_SCHEMES)
            )
        rows.append(
            ("cumulative",)
            + tuple(sum(table[scheme].values()) for scheme in PAPER_SCHEMES)
        )
        text = format_table(
            ["Access type"] + [_SCHEME_TITLES[s] for s in PAPER_SCHEMES],
            rows,
            title="Table 5: bus cycles per reference by operation (pipelined bus)",
            precision=4,
        )
        return Artifact("table5", "Bus cycle breakdown", table, text)

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------

    def figure1(self) -> Artifact:
        """Figure 1: invalidations needed on writes to clean blocks."""
        result = self.combined("dir0b")
        histogram = invalidation_histogram(result)
        num_caches = max(len(trace.pids) for trace in self.traces)
        buckets = histogram.percent_rows(num_caches - 1)
        text = histogram_chart(
            buckets,
            title=(
                "Figure 1: caches invalidated on a write to a previously-clean "
                f"block (<=1 for {100 * histogram.single_or_none_fraction:.1f}%)"
            ),
        )
        return Artifact("figure1", "Invalidation histogram", histogram, text)

    def figure2(self) -> Artifact:
        """Figure 2: bus cycles/reference range over the two buses."""
        ranges = {}
        for scheme in PAPER_SCHEMES:
            result = self.combined(scheme)
            ranges[_SCHEME_TITLES[scheme]] = (
                result.bus_cycles_per_reference(self.pipelined),
                result.bus_cycles_per_reference(self.non_pipelined),
            )
        text = range_chart(
            ranges,
            title="Figure 2: bus cycles per reference (pipelined..non-pipelined)",
        )
        return Artifact("figure2", "Bus cycle ranges", ranges, text)

    def figure3(self) -> Artifact:
        """Figure 3: per-trace bus cycles/reference ranges."""
        data: dict[str, dict[str, tuple[float, float]]] = {}
        blocks = []
        for trace in self.traces:
            ranges = {}
            for scheme in PAPER_SCHEMES:
                result = self.experiment.result(scheme, trace.name)
                ranges[_SCHEME_TITLES[scheme]] = (
                    result.bus_cycles_per_reference(self.pipelined),
                    result.bus_cycles_per_reference(self.non_pipelined),
                )
            data[trace.name] = ranges
            blocks.append(range_chart(ranges, title=f"[{trace.name.upper()}]"))
        text = "Figure 3: bus cycles per reference by trace\n" + "\n\n".join(blocks)
        return Artifact("figure3", "Per-trace bus cycles", data, text)

    def figure4(self) -> Artifact:
        """Figure 4: breakdown as a fraction of each scheme's total."""
        combined = self._combined_map()
        fractions = breakdown_fractions(combined, self.pipelined)
        named = {
            _SCHEME_TITLES[scheme]: {
                category.value: value for category, value in row.items() if value > 0
            }
            for scheme, row in fractions.items()
        }
        text = stacked_fraction_chart(
            named, title="Figure 4: bus cycle breakdown (fraction of scheme total)"
        )
        return Artifact("figure4", "Breakdown fractions", fractions, text)

    def figure5(self) -> Artifact:
        """Figure 5: average bus cycles per bus transaction."""
        combined = self._combined_map()
        costs = transaction_costs(combined, self.pipelined)
        named = {_SCHEME_TITLES[s]: costs[s] for s in PAPER_SCHEMES}
        text = bar_chart(
            named,
            title="Figure 5: average bus cycles per bus transaction (pipelined)",
            precision=2,
        )
        return Artifact("figure5", "Cycles per transaction", costs, text)

    # ------------------------------------------------------------------
    # Section analyses
    # ------------------------------------------------------------------

    def section51(self, q_values=(0.0, 0.5, 1.0, 2.0)) -> Artifact:
        """Section 5.1: fixed-overhead sensitivity + the Berkeley estimate."""
        dir0b = overhead_model(self.combined("dir0b"), self.pipelined)
        dragon = overhead_model(self.combined("dragon"), self.pipelined)
        berkeley = self.combined("berkeley").bus_cycles_per_reference(self.pipelined)
        rows = [
            (
                q,
                dir0b.cycles(q),
                dragon.cycles(q),
                100.0 * dir0b.relative_excess(dragon, q),
            )
            for q in q_values
        ]
        text = format_table(
            ["q", "Dir0B", "Dragon", "Dir0B excess %"],
            rows,
            title=(
                "Section 5.1: cycles/ref with q overhead cycles per transaction\n"
                f"(Dir0B = {dir0b.base:.4f} + {dir0b.slope:.4f}q, "
                f"Dragon = {dragon.base:.4f} + {dragon.slope:.4f}q; "
                f"Berkeley estimate = {berkeley:.4f})"
            ),
        )
        data = {"dir0b": dir0b, "dragon": dragon, "berkeley": berkeley, "rows": rows}
        return Artifact("section51", "Overhead sensitivity", data, text)

    def section52(self, schemes=("dir1nb", "dir0b")) -> Artifact:
        """Section 5.2: spin-lock impact experiment."""
        impacts = [
            spin_lock_impact(self.traces, scheme, self.pipelined, self.simulator)
            for scheme in schemes
        ]
        rows = [
            (
                _SCHEME_TITLES.get(impact.scheme, impact.scheme),
                impact.with_spins,
                impact.without_spins,
                100.0 * impact.relative_drop,
            )
            for impact in impacts
        ]
        text = format_table(
            ["Scheme", "with spins", "without spins", "drop %"],
            rows,
            title="Section 5.2: impact of excluding lock-test reads (pipelined bus)",
        )
        return Artifact("section52", "Spin lock impact", impacts, text)

    def section6_sequential(self) -> Artifact:
        """Section 6: broadcast (Dir0B) vs sequential invalidation (DirnNB)."""
        dir0b = self.combined("dir0b").bus_cycles_per_reference(self.pipelined)
        dirnnb = self.combined("dirnnb").bus_cycles_per_reference(self.pipelined)
        rows = [("Dir0B (broadcast)", dir0b), ("DirnNB (sequential)", dirnnb)]
        text = format_table(
            ["Scheme", "cycles/ref"],
            rows,
            title=(
                "Section 6: full broadcast vs sequential invalidations "
                f"(+{100.0 * (dirnnb / dir0b - 1.0):.2f}%)"
            ),
        )
        return Artifact(
            "section6_sequential",
            "Sequential invalidation",
            {"dir0b": dir0b, "dirnnb": dirnnb},
            text,
        )

    def section6_dir1b(self, broadcast_costs=(1.0, 2.0, 4.0, 8.0, 16.0)) -> Artifact:
        """Section 6: the Dir1B linear broadcast-cost model."""
        model = broadcast_cost_model(self.combined("dir1b"), self.pipelined)
        rows = [(b, model.cycles(b)) for b in broadcast_costs]
        text = format_table(
            ["broadcast cost b", "cycles/ref"],
            rows,
            title=(
                "Section 6: Dir1B cost model "
                f"(cycles/ref = {model.base:.4f} + {model.rate:.4f} b)"
            ),
        )
        return Artifact("section6_dir1b", "Dir1B broadcast model", model, text)

    def section6_sweep(self, pointer_counts=(1, 2, 3)) -> Artifact:
        """Section 6: limited-pointer sweep (DiriB vs DiriNB)."""
        points = pointer_sweep(
            self.traces,
            self.pipelined,
            pointer_counts=pointer_counts,
            simulator=self.simulator,
        )
        rows = [
            (
                point.label,
                point.bus_cycles_per_reference,
                100.0 * point.data_miss_fraction,
                point.pointer_evictions_per_reference,
                point.broadcasts_per_reference,
                point.directory_bits_per_block,
            )
            for point in points
        ]
        text = format_table(
            ["Scheme", "cycles/ref", "miss %", "ptr evic/ref", "bcast/ref", "bits/blk"],
            rows,
            title="Section 6: limited-pointer directory sweep",
        )
        return Artifact("section6_sweep", "Pointer sweep", points, text)

    def section6_storage(self) -> Artifact:
        """Section 6: directory storage bits/block vs machine size."""
        table = directory_storage_table()
        organizations = list(next(iter(table.values())))
        rows = [
            (caches,) + tuple(row[org] for org in organizations)
            for caches, row in table.items()
        ]
        text = format_table(
            ["caches"] + organizations,
            rows,
            title="Section 6: directory storage (bits per memory block)",
            precision=0,
        )
        return Artifact("section6_storage", "Directory storage", table, text)

    def section5_system(self) -> Artifact:
        """Section 5's shared-bus effective-processor bound."""
        rows = []
        bounds = {}
        for scheme in PAPER_SCHEMES:
            cycles = self.combined(scheme).bus_cycles_per_reference(self.pipelined)
            bound = effective_processor_bound(scheme, cycles)
            bounds[scheme] = bound
            rows.append(
                (_SCHEME_TITLES[scheme], cycles, bound.max_processors)
            )
        text = format_table(
            ["Scheme", "cycles/ref", "max processors"],
            rows,
            title=(
                "Section 5: shared-bus saturation bound "
                "(10 MIPS, 1 data ref/instr, 100 ns bus)"
            ),
            precision=2,
        )
        return Artifact("section5_system", "System bound", bounds, text)

    def finite_capacity(
        self, geometries=("256x2", "1024x4", "4096x4")
    ) -> Artifact:
        """Finite-capacity extension: cost decomposition + ranking shifts.

        The paper simulates infinite caches and argues finite-cache cost
        is the coherence cost plus a capacity term (§4).  This artifact
        measures that decomposition across a capacity sweep and asks the
        question the paper could not: does finite capacity *reorder* the
        schemes?
        """
        from repro.analysis.finite import decompose_finite_cost, ranking_shifts

        trace = self.traces[0]
        decomposition_rows = []
        decompositions = []
        for spec in geometries:
            decomposition = decompose_finite_cost(
                trace, "dir0b", self.pipelined,
                geometry=spec, simulator=self.simulator,
            )
            decompositions.append(decomposition)
            decomposition_rows.append(
                (
                    decomposition.geometry,
                    decomposition.finite_cost,
                    decomposition.infinite_cost,
                    decomposition.capacity_component,
                    100.0 * decomposition.capacity_share,
                )
            )
        decomposition_text = format_table(
            ["geometry", "finite", "infinite", "capacity", "cap share %"],
            decomposition_rows,
            title=(
                f"Finite-capacity decomposition: Dir0B cycles/ref on "
                f"{trace.name.upper()} (pipelined bus)"
            ),
        )
        shifts = ranking_shifts(
            trace, list(PAPER_SCHEMES), self.pipelined, list(geometries),
            simulator=self.simulator,
        )
        shift_rows = [
            (
                shift.geometry.canonical(),
                " < ".join(shift.finite_order),
                "yes" if shift.shifted else "no",
                ", ".join(shift.displaced) or "-",
            )
            for shift in shifts
        ]
        shift_text = format_table(
            ["geometry", "finite ranking (best first)", "shifted?", "displaced"],
            shift_rows,
            title=(
                "Scheme ranking under finite capacity "
                f"(infinite: {' < '.join(shifts[0].infinite_order)})"
            ),
        )
        return Artifact(
            "finite_capacity",
            "Finite-capacity decomposition and ranking",
            {"decompositions": decompositions, "shifts": shifts},
            decomposition_text + "\n\n" + shift_text,
        )

    def conclusions(self) -> Artifact:
        """Section 7's claims, each re-derived from the measurements."""
        from repro.analysis.bandwidth import bandwidth_comparison
        from repro.analysis.invalidations import invalidation_histogram
        from repro.analysis.system import effective_processor_bound

        dir0b = self.combined("dir0b")
        dragon = self.combined("dragon")
        dirnnb = self.combined("dirnnb")
        bus = self.pipelined

        competitiveness = dir0b.bus_cycles_per_reference(
            bus
        ) / dragon.bus_cycles_per_reference(bus)
        histogram = invalidation_histogram(dir0b)
        sequential_delta = (
            dirnnb.bus_cycles_per_reference(bus)
            / dir0b.bus_cycles_per_reference(bus)
            - 1.0
        )
        bandwidth = bandwidth_comparison(dir0b)
        bound = effective_processor_bound(
            "dragon", dragon.bus_cycles_per_reference(bus)
        )

        rows = [
            (
                "directory competitive with best snoopy (Dir0B/Dragon)",
                f"{competitiveness:.2f}x (paper 1.46x)",
            ),
            (
                "writes to clean blocks reaching <=1 other cache",
                f"{100 * histogram.single_or_none_fraction:.1f}% (paper >85%)",
            ),
            (
                "sequential invalidation penalty vs broadcast",
                f"+{100 * sequential_delta:.1f}% (paper +1.6%)",
            ),
            (
                "directory/memory bandwidth demand ratio",
                f"{bandwidth.ratio:.2f} (paper: 'only slightly higher')",
            ),
            (
                "shared-bus bound, best scheme (10 MIPS, 100 ns)",
                f"{bound.max_processors:.1f} processors (paper ~15)",
            ),
        ]
        text = format_table(
            ["conclusion", "measured"],
            rows,
            title="Section 7: the paper's conclusions, re-derived",
        )
        data = {
            "competitiveness": competitiveness,
            "single_or_none": histogram.single_or_none_fraction,
            "sequential_delta": sequential_delta,
            "bandwidth_ratio": bandwidth.ratio,
            "max_processors": bound.max_processors,
        }
        return Artifact("conclusions", "Conclusions", data, text)

    # ------------------------------------------------------------------

    def all_artifacts(self) -> list[Artifact]:
        """Regenerate every table, figure, and section analysis."""
        makers: list[Callable[[], Artifact]] = [
            self.table1,
            self.table2,
            self.table3,
            self.table4,
            self.table5,
            self.figure1,
            self.figure2,
            self.figure3,
            self.figure4,
            self.figure5,
            self.section51,
            self.section52,
            self.section6_sequential,
            self.section6_dir1b,
            self.section6_sweep,
            self.section6_storage,
            self.section5_system,
            self.finite_capacity,
            self.conclusions,
        ]
        return [make() for make in makers]
