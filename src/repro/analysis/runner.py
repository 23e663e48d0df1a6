"""Lint-run orchestration behind ``python -m repro lint``.

Composes the two rule families over their targets — the determinism
linter over Python trees (``--self`` = the installed ``repro``
package), the scenario analyzer over HML files/directories and the
shipped corpus (``--scenarios``) — and renders everything through the
shared :class:`~repro.analysis.report.Reporter`.
"""

from __future__ import annotations

import os

from repro.analysis.callgraph import TAINT_RULES, load_program
from repro.analysis.corpus import shipped_scenario_sets
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    SourceSpan,
    exit_code,
    github_annotations,
    render_diagnostics,
)
from repro.analysis.pyrules import PY_RULES, stale_pragma_diags
from repro.analysis.scenario_rules import (
    SCENARIO_RULES,
    ScenarioSet,
    analyze_set,
)
from repro.analysis.tracerules import TRACE_RULES
from repro.hml.lexer import HmlSyntaxError
from repro.hml.parser import parse
from repro.ioutil import UsageError

__all__ = [
    "self_lint_root",
    "run_lint",
    "lint_hml_paths",
    "lint_python_program",
    "known_rule_ids",
    "list_rules",
]

#: program-scoped rule families (each checker takes a PyProgram)
_PROGRAM_REGISTRIES = (TAINT_RULES, TRACE_RULES)
#: findings the lint run itself may synthesize outside any registry
_META_RULES = {"det-syntax", "lint-stale-pragma"}


def self_lint_root() -> str:
    """The directory ``--self`` lints: the installed repro package."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_hml(path: str) -> "tuple[object, None] | tuple[None, Diagnostic]":
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read()), None
    except HmlSyntaxError as exc:
        return None, Diagnostic(
            "scenario-syntax", Severity.ERROR,
            f"cannot parse: {exc}",
            span=SourceSpan(file=path, line=getattr(exc, "line", 0) or 0),
        )
    except ValueError as exc:
        return None, Diagnostic(
            "scenario-syntax", Severity.ERROR, f"cannot parse: {exc}",
            span=SourceSpan(file=path),
        )


def lint_hml_paths(
    paths: list[str],
    capacity_bps: float | None = None,
    closed: bool = False,
) -> list[Diagnostic]:
    """Analyze ``.hml`` files / directories as one scenario set.

    A directory is one set (its documents cross-resolve); loose files
    listed together also form one set, named after their common
    parent. Unparseable documents yield a ``scenario-syntax`` error
    instead of aborting the run.
    """
    out: list[Diagnostic] = []
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".hml")
            )
        else:
            files.append(path)
    documents = {}
    for path in files:
        doc, problem = _load_hml(path)
        if problem is not None:
            out.append(problem)
        else:
            name = os.path.splitext(os.path.basename(path))[0]
            documents[name] = doc
    if documents:
        set_name = (os.path.basename(os.path.normpath(paths[0]))
                    if len(paths) == 1 else "adhoc")
        sset = ScenarioSet(name=set_name, documents=documents,
                           closed=closed, capacity_bps=capacity_bps)
        out.extend(analyze_set(sset))
    return out


def known_rule_ids() -> set[str]:
    """Every rule id the Python lint can emit (for stale-pragma)."""
    out: set[str] = set(_META_RULES)
    for registry in (PY_RULES, *_PROGRAM_REGISTRIES):
        out.update(registry.ids())
    return out


def lint_python_program(
    paths: list[str],
    full: bool = False,
) -> list[Diagnostic]:
    """Whole-program Python lint: every family plus pragma hygiene.

    Runs the per-module determinism rules, the program-scoped
    families (taint, trace-schema), then the stale-pragma pass (which
    must see the pragma usage every earlier family recorded). ``full``
    marks a complete-package lint (``--self``) and enables
    program-completeness rules like ``trace-unused-kind``.
    """
    program, diags = load_program(paths, full=full)
    for mod in program.modules:
        diags.extend(PY_RULES.run(mod))
    for registry in _PROGRAM_REGISTRIES:
        diags.extend(registry.run(program))
    known = known_rule_ids()
    for mod in program.modules:
        diags.extend(stale_pragma_diags(mod, known))
    diags.sort(key=lambda d: (
        d.span.file if d.span else d.subject,
        d.span.line if d.span else 0,
        d.rule_id,
    ))
    return diags


def run_lint(
    reporter,
    *,
    paths: list[str] | None = None,
    self_lint: bool = False,
    scenarios: bool = False,
    capacity_bps: float | None = None,
    closed: bool = False,
    fmt: str = "text",
    rules_only: bool = False,
) -> int:
    """``repro lint``: run the requested passes; the process exit code."""
    if rules_only:
        return list_rules(reporter)
    any_pass = False
    status = 0
    gh_lines: list[str] = []

    py_paths = [p for p in (paths or []) if p.endswith(".py")
                or (os.path.isdir(p) and not _looks_like_hml_dir(p))]
    hml_paths = [p for p in (paths or []) if p not in py_paths]
    if self_lint:
        py_paths.append(self_lint_root())

    if py_paths:
        any_pass = True
        diags = lint_python_program(py_paths, full=self_lint)
        render_diagnostics(reporter, diags, "determinism lint")
        gh_lines.extend(github_annotations(diags))
        status = max(status, exit_code(diags))

    if hml_paths:
        any_pass = True
        diags = lint_hml_paths(hml_paths, capacity_bps=capacity_bps,
                               closed=closed)
        render_diagnostics(reporter, diags, "scenario analysis")
        gh_lines.extend(github_annotations(diags))
        status = max(status, exit_code(diags))

    if scenarios:
        any_pass = True
        all_diags: list[Diagnostic] = []
        for name, sset in sorted(shipped_scenario_sets().items()):
            all_diags.extend(analyze_set(sset))
            reporter.value(
                f"scenario-set:{name}",
                f"{len(sset.documents)} document(s), "
                + ("closed" if sset.closed else "open"),
            )
        render_diagnostics(reporter, all_diags, "shipped scenarios")
        gh_lines.extend(github_annotations(all_diags))
        status = max(status, exit_code(all_diags))

    if not any_pass:
        raise UsageError("nothing to lint: pass PATH, --self or --scenarios")
    if fmt == "github":
        for line in gh_lines:
            reporter.text(line)
    return status


def _looks_like_hml_dir(path: str) -> bool:
    try:
        names = os.listdir(path)
    except OSError:
        return False
    return any(n.endswith(".hml") for n in names)


def list_rules(reporter) -> int:
    """Render the rule catalog of every family."""
    for registry in (SCENARIO_RULES, PY_RULES, *_PROGRAM_REGISTRIES):
        reporter.table(
            f"{registry.family} rules",
            ["rule", "severity", "description"],
            [[r.rule_id, r.severity.label, r.description]
             for r in registry],
        )
    return 0
