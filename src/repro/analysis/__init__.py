"""Result analysis, report rendering, and the static-analysis engine.

Besides the experiment-harness helpers (stats, tables),
this package hosts the unified static-analysis subsystem: a shared
diagnostics engine (:mod:`repro.analysis.diagnostics`) with two rule
families — the HML scenario analyzer
(:mod:`repro.analysis.scenario_rules`) and the simulation determinism
linter (:mod:`repro.analysis.pyrules`) — exposed through
``python -m repro lint`` (:mod:`repro.analysis.runner`).
"""

from repro.analysis.callgraph import TAINT_RULES, PyProgram, load_program
from repro.analysis.diagnostics import (
    Diagnostic,
    Rule,
    RuleRegistry,
    Severity,
    SourceSpan,
    exit_code,
    github_annotations,
    render_diagnostics,
    summarize_diagnostics,
)
from repro.analysis.pyrules import PY_RULES
from repro.analysis.report import Reporter
from repro.analysis.tracerules import TRACE_RULES, extract_emit_sites
from repro.analysis.scenario_rules import (
    SCENARIO_RULES,
    ScenarioSet,
    analyze_document,
    analyze_set,
)
from repro.analysis.stats import mean_ci
from repro.analysis.tables import render_series, render_table

__all__ = [
    "PY_RULES",
    "SCENARIO_RULES",
    "TAINT_RULES",
    "TRACE_RULES",
    "Diagnostic",
    "PyProgram",
    "Reporter",
    "Rule",
    "RuleRegistry",
    "ScenarioSet",
    "Severity",
    "SourceSpan",
    "analyze_document",
    "analyze_set",
    "exit_code",
    "extract_emit_sites",
    "github_annotations",
    "load_program",
    "mean_ci",
    "render_diagnostics",
    "render_series",
    "render_table",
    "summarize_diagnostics",
]
