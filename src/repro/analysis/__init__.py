"""Reporting helpers: text tables and ASCII charts."""

from repro._lazy import lazy_exports as _lazy_exports

__all__ = [
    "bar_chart",
    "format_cell",
    "generate_report",
    "grouped_bar_chart",
    "hbar",
    "render_comparison",
    "render_table",
    "sparkline",
    "write_report",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.charts": (
            "bar_chart",
            "grouped_bar_chart",
            "hbar",
            "sparkline",
        ),
        "repro.analysis.report": ("generate_report", "write_report"),
        "repro.analysis.tables": (
            "format_cell",
            "render_comparison",
            "render_table",
        ),
    },
)
