"""Shared diagnostics engine for the static-analysis subsystem.

Both rule families — the HML scenario analyzer
(:mod:`repro.analysis.scenario_rules`) and the simulation determinism
linter (:mod:`repro.analysis.pyrules`) — report through this module:
a rule is a named, documented checker registered in a
:class:`RuleRegistry`; a finding is a :class:`Diagnostic` carrying a
severity, a stable rule id, an optional :class:`SourceSpan`, and a
message. Rendering goes through the existing
:class:`~repro.analysis.report.Reporter`, so ``python -m repro lint``
emits the same text tables / single-JSON-document output as every
other CLI path.

Severity contract: only :attr:`Severity.ERROR` findings fail a lint
run (non-zero exit). Warnings surface authoring smells that are legal
but suspicious; info is purely advisory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Severity",
    "SourceSpan",
    "Diagnostic",
    "Rule",
    "RuleRegistry",
    "exit_code",
    "github_annotations",
    "render_diagnostics",
    "summarize_diagnostics",
]


class Severity(enum.IntEnum):
    """Finding severity; ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """Where a finding anchors: a file (or scenario name) and a line.

    ``file`` is a filesystem path for Python lint findings and a
    scenario/document name for HML findings; ``line`` is 1-based
    (0 = whole file / whole document).
    """

    file: str
    line: int = 0
    column: int = 0

    def location(self) -> str:
        if self.line <= 0:
            return self.file
        if self.column > 0:
            return f"{self.file}:{self.line}:{self.column}"
        return f"{self.file}:{self.line}"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One finding from one rule."""

    rule_id: str
    severity: Severity
    message: str
    span: SourceSpan | None = None
    #: free-form subject (stream id, module name, scenario-set name)
    subject: str = ""

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR


@dataclass(frozen=True, slots=True)
class Rule:
    """A registered checker.

    ``check`` receives one analysis context (a
    :class:`~repro.analysis.scenario_rules.ScenarioContext` or a
    :class:`~repro.analysis.pyrules.PyModule`) and yields raw
    diagnostics; the registry stamps each with the rule's id and
    default severity (a checker may still emit an explicit severity
    via :meth:`RuleRegistry.run`'s pass-through).
    """

    rule_id: str
    family: str
    description: str
    severity: Severity
    check: Callable[..., Iterable[Diagnostic]]


class RuleRegistry:
    """Holds one family of rules; rules self-register via decorator.

    >>> registry = RuleRegistry("scenario")
    >>> @registry.rule("demo-rule", "fires on everything")
    ... def _check(ctx):
    ...     yield Diagnostic("", Severity.ERROR, "boom")
    """

    def __init__(self, family: str) -> None:
        self.family = family
        self._rules: dict[str, Rule] = {}

    def rule(
        self,
        rule_id: str,
        description: str,
        severity: Severity = Severity.ERROR,
    ) -> Callable[[Callable[..., Iterable[Diagnostic]]],
                  Callable[..., Iterable[Diagnostic]]]:
        """Decorator registering ``fn`` as the checker for ``rule_id``."""
        if rule_id in self._rules:
            raise ValueError(f"rule {rule_id!r} already registered "
                             f"in family {self.family!r}")

        def register(
            fn: Callable[..., Iterable[Diagnostic]],
        ) -> Callable[..., Iterable[Diagnostic]]:
            self._rules[rule_id] = Rule(
                rule_id=rule_id, family=self.family,
                description=description, severity=severity, check=fn,
            )
            return fn

        return register

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(f"unknown {self.family} rule {rule_id!r}") from None

    def ids(self) -> list[str]:
        return sorted(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        for rule_id in self.ids():
            yield self._rules[rule_id]

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def run(self, ctx: object) -> list[Diagnostic]:
        """Run every rule against ``ctx``.

        Each yielded diagnostic is stamped with the rule's id and, when
        the checker left severity unset (``rule_id == ""`` sentinel is
        not used; checkers emit real severities), the registry keeps
        whatever the checker chose — the rule's declared severity is
        the default the checker closures use.
        """
        out: list[Diagnostic] = []
        for rule in self:
            for diag in rule.check(ctx):
                if diag.rule_id != rule.rule_id:
                    diag = replace(diag, rule_id=rule.rule_id)
                out.append(diag)
        out.sort(key=lambda d: (
            d.span.file if d.span else d.subject,
            d.span.line if d.span else 0,
            d.rule_id,
        ))
        return out


@dataclass(slots=True)
class _Counts:
    errors: int = 0
    warnings: int = 0
    infos: int = 0

    def count(self, diags: Iterable[Diagnostic]) -> "_Counts":
        for d in diags:
            if d.severity is Severity.ERROR:
                self.errors += 1
            elif d.severity is Severity.WARNING:
                self.warnings += 1
            else:
                self.infos += 1
        return self


def summarize_diagnostics(diags: Sequence[Diagnostic]) -> dict[str, int]:
    """``{"errors": n, "warnings": n, "infos": n}`` rollup."""
    c = _Counts().count(diags)
    return {"errors": c.errors, "warnings": c.warnings, "infos": c.infos}


def exit_code(diags: Sequence[Diagnostic]) -> int:
    """Process exit status for a lint run: 1 iff any error."""
    return 1 if any(d.is_error for d in diags) else 0


_GITHUB_LEVEL = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "notice",
}


def _github_escape(text: str) -> str:
    """GitHub workflow-command data escaping (%, CR, LF)."""
    return (text.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A"))


def github_annotations(diags: Sequence[Diagnostic]) -> list[str]:
    """GitHub Actions workflow commands, one per finding.

    ``::error file=src/x.py,line=12,col=3::[rule-id] message`` — when
    printed from a CI step these land as inline annotations on the
    PR diff. Findings without a file span annotate the run itself.
    """
    out: list[str] = []
    for d in diags:
        props = ""
        if d.span is not None and d.span.file:
            props = f" file={_github_escape(d.span.file)}"
            if d.span.line > 0:
                props += f",line={d.span.line}"
                if d.span.column > 0:
                    props += f",col={d.span.column}"
        message = _github_escape(f"[{d.rule_id}] {d.message}")
        out.append(f"::{_GITHUB_LEVEL[d.severity]}{props}::{message}")
    return out


def render_diagnostics(reporter, diags: Sequence[Diagnostic],
                       title: str) -> None:
    """Render findings as one Reporter table (+ per-line text)."""
    rows = [
        [d.severity.label, d.rule_id,
         d.span.location() if d.span else d.subject, d.message]
        for d in diags
    ]
    if rows:
        reporter.table(title, ["severity", "rule", "where", "message"], rows)
    counts = summarize_diagnostics(diags)
    reporter.value(
        f"{title}:summary",
        f"{counts['errors']} error(s), {counts['warnings']} warning(s), "
        f"{counts['infos']} info",
    )
