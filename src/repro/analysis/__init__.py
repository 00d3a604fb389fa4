"""Analyses behind the paper's tables, figures, and back-of-envelope models."""

from repro import lazy_exports

_EXPORTS = {
    "breakdown_table": "repro.analysis.breakdown",
    "breakdown_fractions": "repro.analysis.breakdown",
    "InvalidationHistogram": "repro.analysis.invalidations",
    "invalidation_histogram": "repro.analysis.invalidations",
    "transaction_costs": "repro.analysis.transactions",
    "OverheadModel": "repro.analysis.sensitivity",
    "overhead_model": "repro.analysis.sensitivity",
    "crossover_q": "repro.analysis.sensitivity",
    "SpinLockImpact": "repro.analysis.spinlocks",
    "spin_lock_impact": "repro.analysis.spinlocks",
    "BroadcastCostModel": "repro.analysis.scalability",
    "broadcast_cost_model": "repro.analysis.scalability",
    "directory_storage_table": "repro.analysis.scalability",
    "pointer_sweep": "repro.analysis.scalability",
    "wasted_invalidation_rate": "repro.analysis.scalability",
    "SystemBound": "repro.analysis.system",
    "effective_processor_bound": "repro.analysis.system",
    "BandwidthComparison": "repro.analysis.bandwidth",
    "bandwidth_comparison": "repro.analysis.bandwidth",
    "BusContentionModel": "repro.analysis.contention",
    "ContentionPoint": "repro.analysis.contention",
    "contention_model": "repro.analysis.contention",
    "ScalingPoint": "repro.analysis.scaling",
    "by_scheme": "repro.analysis.scaling",
    "run_scaling_study": "repro.analysis.scaling",
    "EventCost": "repro.analysis.event_costs",
    "event_cost_table": "repro.analysis.event_costs",
    "verify_decomposition": "repro.analysis.event_costs",
    "NetworkPoint": "repro.analysis.networks",
    "network_scaling_study": "repro.analysis.networks",
    "FiniteCacheDecomposition": "repro.analysis.finite",
    "RankingShift": "repro.analysis.finite",
    "capacity_sweep": "repro.analysis.finite",
    "decompose_finite_cost": "repro.analysis.finite",
    "ranking_shift": "repro.analysis.finite",
    "ranking_shifts": "repro.analysis.finite",
    "MigratoryPrediction": "repro.analysis.analytic",
    "ProducerConsumerPrediction": "repro.analysis.analytic",
    "ReadOnlyDir1NBPrediction": "repro.analysis.analytic",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
