"""Core evaluation framework: simulator, results, experiments, taxonomy."""

from repro import lazy_exports

_EXPORTS = {
    "EventFrequencies": "repro.core.frequencies",
    "SimulationResult": "repro.core.result",
    "merge_results": "repro.core.result",
    "Simulator": "repro.core.simulator",
    "SimulationContext": "repro.core.simulator",
    "simulate": "repro.core.simulator",
    "DirClass": "repro.core.classification",
    "classify": "repro.core.classification",
    "scheme_label": "repro.core.classification",
    "CellFailure": "repro.core.experiment",
    "ExperimentResult": "repro.core.experiment",
    "InvariantChecker": "repro.core.invariants",
    "CoherentOracle": "repro.core.oracle",
    "StaleReadError": "repro.core.oracle",
    "ExplorationReport": "repro.core.statespace",
    "explore_block_states": "repro.core.statespace",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
