"""Synthetic multiprocessor workloads (ATUM-trace substitutes).

The paper evaluates three parallel applications traced on a 4-CPU VAX
8350 (POPS, THOR, PERO — Section 4.4).  Those ATUM traces are not
available, so this subpackage generates deterministic synthetic traces
with the same structural features the paper's results depend on:
instruction/data mix, test-and-test-and-set spin locks, private working
sets, read-mostly / migratory / producer-consumer sharing, OS activity,
and (rare) process migration.  See DESIGN.md for the substitution
rationale and EXPERIMENTS.md for the calibration record.
"""

from repro import lazy_exports

_EXPORTS = {
    "AddressSpaceLayout": "repro.workloads.layout",
    "Lock": "repro.workloads.locks",
    "LockTable": "repro.workloads.locks",
    "SyntheticWorkload": "repro.workloads.base",
    "WorkloadConfig": "repro.workloads.base",
    "pops_config": "repro.workloads.pops",
    "thor_config": "repro.workloads.thor",
    "pero_config": "repro.workloads.pero",
    "available_workloads": "repro.workloads.registry",
    "make_trace": "repro.workloads.registry",
    "standard_traces": "repro.workloads.registry",
    "workload_config": "repro.workloads.registry",
    "MICRO_GENERATORS": "repro.workloads.micro",
    "micro_traces": "repro.workloads.micro",
    "MODERN_GENERATORS": "repro.workloads.modern",
    "modern_traces": "repro.workloads.modern",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
