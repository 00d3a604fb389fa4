"""Sweep results: protocols × traces, the paper's evaluation grid.

The paper's evaluation simulates four schemes over three traces and
reports both per-trace numbers (Figure 3) and reference-weighted
averages (Table 4, Table 5, Figures 1/2/4/5).  Every sweep runs as
``Engine(...).run(ExecutionPlan(...))`` (see :mod:`repro.engine`) and
returns an :class:`ExperimentResult`; since event frequencies are
cost-independent, the result can be priced under any bus model
afterwards.  :func:`parse_scheme` and :func:`scheme_key` turn scheme
specs into registry names, options and result keys.

:class:`ExperimentResult` also carries per-cell :class:`CellFailure`
records so a fault-tolerant sweep can return a partial-but-usable
result instead of aborting: healthy (scheme, trace) cells keep their
:class:`SimulationResult`, failed cells are documented, and the
combined views work over whatever completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.result import SimulationResult, merge_results
from repro.cost.bus import BusModel
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CellFailure:
    """One (scheme, trace) cell that could not produce a result.

    Attributes:
        scheme: scheme key of the failed cell (e.g. ``"dir2nb"``).
        trace_name: name of the trace the cell was running.
        category: coarse failure class — the error's type name
            (``"TraceFormatError"``, ``"InvariantViolation"``, ...).
        message: the final error message.
        attempts: how many times the cell was attempted before giving up.
    """

    scheme: str
    trace_name: str
    category: str
    message: str
    attempts: int = 1

    def __str__(self) -> str:
        tries = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return f"({self.scheme}, {self.trace_name}) {self.category}{tries}: {self.message}"


@dataclass
class ExperimentResult:
    """Per-(scheme, trace) simulation results with combined views."""

    #: results[scheme][trace_name] -> SimulationResult
    results: dict[str, dict[str, SimulationResult]] = field(default_factory=dict)
    #: failures[scheme][trace_name] -> CellFailure (error-isolated sweeps)
    failures: dict[str, dict[str, CellFailure]] = field(default_factory=dict)

    @property
    def schemes(self) -> list[str]:
        """Scheme keys present in the results."""
        return list(self.results)

    @property
    def trace_names(self) -> list[str]:
        """Trace names present, in first-seen order."""
        names: list[str] = []
        for per_trace in self.results.values():
            for name in per_trace:
                if name not in names:
                    names.append(name)
        return names

    @property
    def ok(self) -> bool:
        """True when every attempted cell produced a result."""
        return not any(per_trace for per_trace in self.failures.values())

    def all_failures(self) -> list[CellFailure]:
        """Every recorded cell failure, in scheme-then-trace order."""
        return [
            failure
            for per_trace in self.failures.values()
            for failure in per_trace.values()
        ]

    def record_failure(self, failure: CellFailure) -> None:
        """Document one failed (scheme, trace) cell."""
        self.failures.setdefault(failure.scheme, {})[failure.trace_name] = failure

    def result(self, scheme: str, trace_name: str) -> SimulationResult:
        """The result for one (scheme, trace) pair."""
        try:
            return self.results[scheme][trace_name]
        except KeyError:
            failure = self.failures.get(scheme, {}).get(trace_name)
            if failure is not None:
                raise ConfigurationError(
                    f"cell ({scheme!r}, {trace_name!r}) failed: {failure}"
                ) from None
            raise ConfigurationError(
                f"no result for scheme {scheme!r} on trace {trace_name!r}"
            ) from None

    def combined(self, scheme: str) -> SimulationResult:
        """Reference-weighted pool of one scheme's runs over all traces."""
        per_trace = self.results.get(scheme)
        if not per_trace:
            raise ConfigurationError(f"no results for scheme {scheme!r}")
        return merge_results(list(per_trace.values()), name="combined")

    def bus_cycles_table(self, bus: BusModel) -> dict[str, float]:
        """Scheme -> combined bus cycles per reference under *bus*."""
        return {
            scheme: self.combined(scheme).bus_cycles_per_reference(bus)
            for scheme in self.schemes
        }

    def per_trace_bus_cycles(self, bus: BusModel) -> dict[str, dict[str, float]]:
        """scheme -> trace -> bus cycles per reference (Figure 3)."""
        return {
            scheme: {
                name: result.bus_cycles_per_reference(bus)
                for name, result in per_trace.items()
            }
            for scheme, per_trace in self.results.items()
        }


def parse_scheme(spec: str | tuple[str, dict]) -> tuple[str, dict]:
    """Split a scheme spec into (registry name, option dict).

    String specs accept an ``@`` geometry suffix — ``dir0b@1024x4`` or
    ``dir2nb@4096x4@dir:256`` — so finite capacity rides every surface
    that passes scheme names around (CLI, engine plans, result-cache
    keys, service job specs, fabric cells).  A ``geometry`` option is
    normalized to its canonical string form so every spelling of the
    same finite shape produces identical option dicts (and therefore
    identical result-cache keys and scheme keys).
    """
    if isinstance(spec, str):
        if "@" in spec:
            from repro.memory.geometry import parse_geometry

            name, _, geometry = spec.partition("@")
            return name, {"geometry": parse_geometry(geometry).canonical()}
        return spec, {}
    name, options = spec
    options = dict(options)
    if options.get("geometry") is not None:
        from repro.memory.geometry import parse_geometry

        options["geometry"] = parse_geometry(options["geometry"]).canonical()
    return name, options


def scheme_key(name: str, options: dict) -> str:
    """The result key for a scheme spec (``dir2nb`` for 2-pointer DiriNB).

    Finite-geometry cells get an ``@LINESxASSOC[@dir:N]`` suffix so the
    same scheme at different capacities never collides in a sweep.
    """
    pointers = options.get("num_pointers")
    if pointers is not None and name in ("dirib", "dirinb"):
        key = f"dir{pointers}{'b' if name == 'dirib' else 'nb'}"
    else:
        key = name
    geometry = options.get("geometry")
    if geometry is not None:
        from repro.memory.geometry import parse_geometry

        key = f"{key}@{parse_geometry(geometry).canonical()}"
    return key
