"""Bus-cycle cost models (paper Tables 1 and 2)."""

from repro import lazy_exports

_EXPORTS = {
    "BusTiming": "repro.cost.timing",
    "BusModel": "repro.cost.bus",
    "pipelined_bus": "repro.cost.bus",
    "non_pipelined_bus": "repro.cost.bus",
    "CostCategory": "repro.cost.accounting",
    "CycleBreakdown": "repro.cost.accounting",
    "charge_ops": "repro.cost.accounting",
    "NetworkModel": "repro.cost.network",
    "Topology": "repro.cost.network",
    "average_distance": "repro.cost.network",
    "network_cycles_per_reference": "repro.cost.network",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
