"""Multiprocessor address-trace substrate.

This subpackage provides the trace representation used throughout the
library: an ATUM-like interleaved stream of per-CPU, per-process memory
references (instruction fetches, data reads, data writes), plus
serialization, statistics (paper Table 3), and the reference filters
used by the paper's Section 5.2 spin-lock study.
"""

from repro import lazy_exports

_EXPORTS = {
    "RefType": "repro.trace.record",
    "TraceRecord": "repro.trace.record",
    "Trace": "repro.trace.stream",
    "ColumnarTrace": "repro.trace.columnar",
    "columnar_trace": "repro.trace.columnar",
    "read_trace_binary_columns": "repro.trace.io",
    "data_refs": "repro.trace.record",
    "is_data": "repro.trace.record",
    "count_records": "repro.trace.stream",
    "merge_streams": "repro.trace.stream",
    "take": "repro.trace.stream",
    "DecodeReport": "repro.trace.io",
    "LazyTraceFile": "repro.trace.io",
    "is_binary_trace": "repro.trace.io",
    "load_trace": "repro.trace.io",
    "read_any_trace_file": "repro.trace.io",
    "read_trace_file": "repro.trace.io",
    "write_trace_file": "repro.trace.io",
    "read_trace_binary": "repro.trace.io",
    "write_trace_binary": "repro.trace.io",
    "TraceStatistics": "repro.trace.stats",
    "compute_statistics": "repro.trace.stats",
    "exclude_lock_spins": "repro.trace.filters",
    "relabel_sharers_by_process": "repro.trace.filters",
    "relabel_sharers_by_cpu": "repro.trace.filters",
    "split_user_system": "repro.trace.filters",
    "windows": "repro.trace.windows",
    "window_statistics": "repro.trace.windows",
    "window_costs": "repro.trace.windows",
    "WindowCost": "repro.trace.windows",
    "sparkline": "repro.trace.windows",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
