"""The presentation scenario: one document, fully resolved.

Combines the four abstractions into the object the rest of the system
exchanges: the server's flow scheduler reads stream specs from it to
compute the flow scenario; the client's presentation scheduler reads
the playout schedule from it to spawn playout processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hml.ast import HmlDocument, HyperLink
from repro.hml.parser import parse
from repro.hml.validate import validate_document
from repro.media.types import MediaType
from repro.model.content import ContentIndex, MediaLocator
from repro.model.layout import DisplayLayout, LayoutEngine
from repro.model.sync import PlayoutEntry, build_playout_schedule, scenario_duration

__all__ = ["StreamSpec", "PresentationScenario"]


@dataclass(frozen=True, slots=True)
class StreamSpec:
    """Everything the flow scheduler needs about one media stream."""

    entry: PlayoutEntry
    locator: MediaLocator

    @property
    def stream_id(self) -> str:
        return self.entry.stream_id

    @property
    def media_type(self) -> MediaType:
        return self.entry.media_type

    @property
    def server(self) -> str:
        return self.locator.server

    @property
    def is_continuous(self) -> bool:
        return self.entry.media_type.is_continuous


@dataclass(slots=True)
class PresentationScenario:
    """A validated, resolved presentation scenario."""

    document: HmlDocument
    schedule: list[PlayoutEntry]
    layout: DisplayLayout
    streams: list[StreamSpec] = field(default_factory=list)

    @classmethod
    def from_document(cls, doc: HmlDocument) -> "PresentationScenario":
        issues = [i for i in validate_document(doc) if i.is_error]
        if issues:
            detail = "; ".join(i.message for i in issues)
            raise ValueError(f"invalid document {doc.title!r}: {detail}")
        schedule = build_playout_schedule(doc)
        content = ContentIndex.from_document(doc)
        layout = LayoutEngine().layout(doc)
        streams = [
            StreamSpec(entry=e, locator=content.get(e.stream_id))
            for e in schedule
        ]
        return cls(document=doc, schedule=schedule, layout=layout,
                   streams=streams)

    @classmethod
    def from_markup(cls, markup: str) -> "PresentationScenario":
        return cls.from_document(parse(markup))

    # -- views -------------------------------------------------------------
    @property
    def title(self) -> str:
        return self.document.title

    @property
    def duration(self) -> float | None:
        return scenario_duration(self.schedule)

    def continuous_streams(self) -> list[StreamSpec]:
        return [s for s in self.streams if s.is_continuous]

    def discrete_streams(self) -> list[StreamSpec]:
        return [s for s in self.streams if not s.is_continuous]

    def sync_groups(self) -> dict[str, list[StreamSpec]]:
        groups: dict[str, list[StreamSpec]] = {}
        for s in self.streams:
            if s.entry.sync_group:
                groups.setdefault(s.entry.sync_group, []).append(s)
        return groups

    def timed_link(self) -> HyperLink | None:
        """The AT-timed hyperlink that auto-advances the scenario."""
        for link in self.document.hyperlinks():
            if link.at_time is not None:
                return link
        return None

    def stream(self, stream_id: str) -> StreamSpec:
        for s in self.streams:
            if s.stream_id == stream_id:
                return s
        raise KeyError(f"no stream {stream_id!r} in scenario {self.title!r}")
