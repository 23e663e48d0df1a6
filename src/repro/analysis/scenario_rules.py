"""Whole-scenario static analysis over parsed HML documents.

:mod:`repro.hml.validate` checks per-node constraints (ids unique,
times sane). This module checks what only the *whole* scenario — or a
whole multi-document scenario set — can reveal, ahead of any byte
streaming:

``scenario-sync-interval``
    AU_VI sync-group members must occupy one coincident, positive
    interval: "the two media should start and stop playing at the
    same time" (§3.1). Fires on diverging starts/ends, negative or
    zero-length intervals, and open-ended members paired with bounded
    ones.

``scenario-link-window``
    A timed ``HLINK AT t`` must fire inside its anchor document's
    active interval ``[0, scenario_end]``: a link timed after the last
    media ends leaves the presentation idling with nothing driving the
    clock; ``t`` before the end is the (legal) early-cut authoring
    choice and only warns.

``scenario-link-dangling``
    Every hyperlink target must resolve inside the scenario set.
    Errors in *closed* sets (the authored universe is complete —
    e.g. a Hermes course); warns in open sets where targets may live
    on servers outside the analyzed corpus.

``scenario-bandwidth``
    The document's charge, the peak of
    :func:`repro.model.sync.check_bandwidth` (an open-ended stream is
    charged from its start and never released), must fit the declared
    capacity. The server charges ``request-doc`` with the same function,
    so against a contract's admission limit (capacity times the
    contract's share: all of it at ``open_fraction=1``) the verdict is
    what an otherwise empty server decides. A warning (fits only at the
    bottom rungs) is a session with a floor negotiated down; an error
    is a refusal, with this rule's message as its reason.
"""

from __future__ import annotations

from collections.abc import Iterator

from dataclasses import dataclass, field

from repro.analysis.diagnostics import (
    Diagnostic,
    RuleRegistry,
    Severity,
    SourceSpan,
)
from repro.hml.ast import HmlDocument, HyperLink
from repro.model.sync import (
    PlayoutEntry,
    build_playout_schedule,
    check_bandwidth,
    scenario_duration,
)

__all__ = [
    "SCENARIO_RULES",
    "ScenarioSet",
    "ScenarioContext",
    "analyze_document",
    "analyze_set",
]

SCENARIO_RULES = RuleRegistry("scenario")


@dataclass(slots=True)
class ScenarioSet:
    """A named collection of documents analyzed as one scenario.

    ``closed=True`` asserts the set is the complete authored universe
    (every link target must resolve inside it); open sets only warn on
    unresolved targets. ``capacity_bps`` declares the access-link /
    admission capacity the bandwidth-feasibility pass checks against
    (``None`` skips the pass).
    """

    name: str
    documents: dict[str, HmlDocument] = field(default_factory=dict)
    closed: bool = False
    capacity_bps: float | None = None

    def resolves(self, link: HyperLink) -> bool:
        """Does ``link`` point at a document of this set?

        Both the full ``host:doc`` form and the bare document name
        resolve (cross-host targets name the document on the remote
        server; the set holds documents from every host it spans).
        """
        return (link.target in self.documents
                or link.target_document in self.documents)


@dataclass(slots=True)
class ScenarioContext:
    """What one rule invocation sees: a document inside its set."""

    doc_name: str
    document: HmlDocument
    scenario_set: ScenarioSet
    schedule: list[PlayoutEntry] = field(default_factory=list)

    def span(self) -> SourceSpan:
        return SourceSpan(file=self.doc_name)


# ---------------------------------------------------------------- sync
def _interval_repr(entry: PlayoutEntry) -> str:
    end = "open" if entry.end_time is None else f"{entry.end_time:g}"
    return f"[{entry.start_time:g}, {end})"


@SCENARIO_RULES.rule(
    "scenario-sync-interval",
    "AU_VI sync-group members must share one coincident, positive "
    "playout interval",
)
def _check_sync_intervals(ctx: ScenarioContext) -> Iterator[Diagnostic]:
    groups: dict[str, list[PlayoutEntry]] = {}
    for entry in ctx.schedule:
        if entry.sync_group:
            groups.setdefault(entry.sync_group, []).append(entry)
    for group_name in sorted(groups):
        members = groups[group_name]
        anchor = members[0]
        for entry in members:
            if entry.duration is not None and entry.duration <= 0:
                yield Diagnostic(
                    "", Severity.ERROR,
                    f"sync group {group_name!r}: member "
                    f"{entry.stream_id!r} has a non-positive interval "
                    f"{_interval_repr(entry)}",
                    span=ctx.span(), subject=ctx.doc_name,
                )
        starts = {e.start_time for e in members}
        ends = {e.end_time for e in members}
        if len(starts) > 1 or len(ends) > 1:
            detail = ", ".join(
                f"{e.stream_id}={_interval_repr(e)}"
                for e in sorted(members, key=lambda m: m.stream_id)
            )
            yield Diagnostic(
                "", Severity.ERROR,
                f"sync group {group_name!r}: member intervals diverge "
                f"({detail}); synchronized media must start and stop "
                "together",
                span=ctx.span(), subject=ctx.doc_name,
            )


# ---------------------------------------------------------------- links
@SCENARIO_RULES.rule(
    "scenario-link-window",
    "a timed HLINK must fire inside the document's active interval",
)
def _check_link_window(ctx: ScenarioContext) -> Iterator[Diagnostic]:
    end = scenario_duration(ctx.schedule)
    for link in ctx.document.hyperlinks():
        if link.at_time is None:
            continue
        if link.at_time < 0:
            yield Diagnostic(
                "", Severity.ERROR,
                f"timed link to {link.target!r} fires at "
                f"{link.at_time:g}s, before the document starts",
                span=ctx.span(), subject=ctx.doc_name,
            )
        elif end is not None and link.at_time > end:
            yield Diagnostic(
                "", Severity.ERROR,
                f"timed link to {link.target!r} fires at "
                f"{link.at_time:g}s, outside the document's active "
                f"interval [0, {end:g}]: the presentation idles for "
                f"{link.at_time - end:g}s with no media playing",
                span=ctx.span(), subject=ctx.doc_name,
            )
        elif end is not None and link.at_time < end:
            yield Diagnostic(
                "", Severity.WARNING,
                f"timed link to {link.target!r} fires at "
                f"{link.at_time:g}s and cuts the presentation short "
                f"(last media ends at {end:g}s)",
                span=ctx.span(), subject=ctx.doc_name,
            )


@SCENARIO_RULES.rule(
    "scenario-link-dangling",
    "hyperlink targets must resolve inside the scenario set",
)
def _check_link_dangling(ctx: ScenarioContext) -> Iterator[Diagnostic]:
    severity = (Severity.ERROR if ctx.scenario_set.closed
                else Severity.WARNING)
    qualifier = "closed" if ctx.scenario_set.closed else "open"
    for link in ctx.document.hyperlinks():
        if not link.target.strip():
            continue  # validate_document already errors on empty targets
        if not ctx.scenario_set.resolves(link):
            yield Diagnostic(
                "", severity,
                f"link target {link.target!r} does not resolve in the "
                f"{qualifier} scenario set {ctx.scenario_set.name!r} "
                f"({len(ctx.scenario_set.documents)} document(s))",
                span=ctx.span(), subject=ctx.doc_name,
            )


# ------------------------------------------------------------ bandwidth
@SCENARIO_RULES.rule(
    "scenario-bandwidth",
    "worst-case concurrent bandwidth must fit the declared capacity",
)
def _check_bandwidth_rule(ctx: ScenarioContext) -> Iterator[Diagnostic]:
    capacity = ctx.scenario_set.capacity_bps
    if capacity is None:
        return
    verdict = check_bandwidth(ctx.schedule, capacity)
    if not verdict.feasible:
        yield Diagnostic(
            "", (Severity.WARNING if verdict.feasible_degraded
                 else Severity.ERROR),
            verdict.finding(), span=ctx.span(), subject=ctx.doc_name,
        )


# ---------------------------------------------------------------- entry
def analyze_document(
    doc_name: str,
    document: HmlDocument,
    scenario_set: ScenarioSet | None = None,
) -> list[Diagnostic]:
    """Run every scenario rule over one document.

    ``scenario_set=None`` analyzes the document as a singleton open
    set (link resolution warns rather than errors).
    """
    sset = scenario_set if scenario_set is not None else ScenarioSet(
        name=doc_name, documents={doc_name: document})
    ctx = ScenarioContext(
        doc_name=doc_name, document=document, scenario_set=sset,
        schedule=build_playout_schedule(document),
    )
    return SCENARIO_RULES.run(ctx)


def analyze_set(scenario_set: ScenarioSet) -> list[Diagnostic]:
    """Run every scenario rule over every document of a set."""
    out: list[Diagnostic] = []
    for doc_name in sorted(scenario_set.documents):
        out.extend(analyze_document(
            doc_name, scenario_set.documents[doc_name],
            scenario_set=scenario_set))
    return out
