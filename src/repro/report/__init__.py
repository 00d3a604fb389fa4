"""Report rendering: ASCII tables and figures, one function per artifact."""

from repro import lazy_exports

_EXPORTS = {
    "format_table": "repro.report.tables",
    "bar_chart": "repro.report.figures",
    "histogram_chart": "repro.report.figures",
    "range_chart": "repro.report.figures",
    "experiments": "repro.report.experiments",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
