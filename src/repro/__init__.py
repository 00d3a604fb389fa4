"""repro — trace-driven evaluation of directory schemes for cache coherence.

A faithful reimplementation of the system behind Agarwal, Simoni,
Hennessy & Horowitz, *An Evaluation of Directory Schemes for Cache
Coherence* (ISCA 1988): a multiprocessor trace substrate, synthetic
workload generators standing in for the paper's ATUM traces, executable
coherence-protocol state machines (Dir1NB, Dir0B, DirnNB, DiriB,
DiriNB, coarse-vector, WTI, Dragon, Berkeley), the paper's bus cost
models, and the analyses behind every table and figure.

Quickstart::

    from repro import standard_traces, simulate, pipelined_bus

    trace = standard_traces(length=100_000)[0]
    result = simulate(trace, "dir0b")
    print(result.bus_cycles_per_reference(pipelined_bus()))
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Any

# Every package ``__init__`` in repro is a name -> module map handed to
# ``lazy_exports``: a public name is imported from its module on first
# access and then bound on the package, so ``import repro`` loads no
# submodule and a process pays only for the modules it uses.


class _LazyPackage(ModuleType):
    """A package whose ``_EXPORTS`` names are imported on first access."""

    def __getattr__(self, name: str) -> Any:
        target = self.__dict__["_EXPORTS"].get(name)
        if target is None:
            raise AttributeError(f"module {self.__name__!r} has no attribute {name!r}")
        module = import_module(target)
        if name not in self.__dict__:  # not bound by importing a submodule
            setattr(self, name, getattr(module, name))
        return self.__dict__[name]

    def __dir__(self) -> list[str]:
        return sorted(set(self.__dict__) | set(self.__dict__["_EXPORTS"]))

    def __setattr__(self, name: str, value: Any) -> None:
        # Importing a submodule binds it on its package.  An export that
        # shares the submodule's name takes its place (the function
        # ``repro.trace.windows``) unless the export is the submodule
        # itself (``repro.report.experiments``).
        exported = self.__dict__["_EXPORTS"].get(name)
        if isinstance(value, ModuleType) and exported == value.__name__:
            value = getattr(value, name, value)
        super().__setattr__(name, value)


def lazy_exports(package: str, exports: dict[str, str]) -> None:
    """Resolve each name in *exports* from its module on first access."""
    module = sys.modules[package]
    module.__dict__["_EXPORTS"] = exports
    module.__class__ = _LazyPackage


__version__ = "1.0.0"

_EXPORTS = {
    "ReproError": "repro.errors",
    "TraceFormatError": "repro.errors",
    "ProtocolError": "repro.errors",
    "InvariantViolation": "repro.errors",
    "ConfigurationError": "repro.errors",
    "UnknownSchemeError": "repro.errors",
    "CheckpointError": "repro.errors",
    "ConformanceError": "repro.errors",
    "TransientError": "repro.errors",
    "ServiceError": "repro.errors",
    "JobSpecError": "repro.errors",
    "JobNotFoundError": "repro.errors",
    "ServiceUnavailableError": "repro.errors",
    "RefType": "repro.trace.record",
    "TraceRecord": "repro.trace.record",
    "Trace": "repro.trace.stream",
    "TraceStatistics": "repro.trace.stats",
    "compute_statistics": "repro.trace.stats",
    "exclude_lock_spins": "repro.trace.filters",
    "read_trace_file": "repro.trace.io",
    "write_trace_file": "repro.trace.io",
    "BlockMapper": "repro.memory.address",
    "InfiniteCache": "repro.memory.cache",
    "FiniteCache": "repro.memory.cache",
    "CoherenceProtocol": "repro.protocols.base",
    "EventType": "repro.protocols.events",
    "available_protocols": "repro.protocols.registry",
    "make_protocol": "repro.protocols.registry",
    "BusTiming": "repro.cost.timing",
    "BusModel": "repro.cost.bus",
    "CostCategory": "repro.cost.accounting",
    "pipelined_bus": "repro.cost.bus",
    "non_pipelined_bus": "repro.cost.bus",
    "Simulator": "repro.core.simulator",
    "simulate": "repro.core.simulator",
    "SimulationResult": "repro.core.result",
    "merge_results": "repro.core.result",
    "EventFrequencies": "repro.core.frequencies",
    "ExperimentResult": "repro.core.experiment",
    "CellFailure": "repro.core.experiment",
    "DirClass": "repro.core.classification",
    "classify": "repro.core.classification",
    "scheme_label": "repro.core.classification",
    "Engine": "repro.engine.core",
    "ExecutionPlan": "repro.engine.plan",
    "EngineObserver": "repro.engine.observer",
    "EngineMetrics": "repro.engine.observer",
    "RetryPolicy": "repro.engine.policies",
    "CheckpointManager": "repro.runner",
    "FaultInjector": "repro.runner",
    "WorkloadConfig": "repro.workloads.base",
    "SyntheticWorkload": "repro.workloads.base",
    "available_workloads": "repro.workloads.registry",
    "make_trace": "repro.workloads.registry",
    "standard_traces": "repro.workloads.registry",
    "ConformanceChecker": "repro.verify.checker",
    "ConformanceReport": "repro.verify.checker",
    "ConformanceSpec": "repro.verify.checker",
    "Corpus": "repro.verify.corpus",
    "TraceFuzzer": "repro.verify.fuzzer",
    "run_mutation_testing": "repro.verify.mutation",
    "shrink_trace": "repro.verify.shrink",
}

__all__ = ["__version__", *_EXPORTS]

lazy_exports(__name__, _EXPORTS)
