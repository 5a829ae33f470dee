"""Evaluation tooling: metrics, table rendering, experiment harness."""

from repro.analysis.metrics import (
    geometric_mean,
    improvement_over,
)
from repro.analysis.tables import render_table
from repro.analysis.report import REPORT_SECTIONS, assemble_report
from repro.analysis.traces import (
    CapViolation,
    audit_cap_violations,
)
from repro.analysis.experiments import (
    ClipSchedulerAdapter,
    ComparisonCell,
    MethodComparison,
    build_trained_inflection,
    compare_methods,
    make_schedulers,
)

__all__ = [
    "geometric_mean",
    "improvement_over",
    "render_table",
    "ClipSchedulerAdapter",
    "ComparisonCell",
    "MethodComparison",
    "build_trained_inflection",
    "compare_methods",
    "make_schedulers",
    "CapViolation",
    "audit_cap_violations",
    "REPORT_SECTIONS",
    "assemble_report",
]
