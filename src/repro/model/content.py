"""Content abstraction: where each inline media entity lives.

A SOURCE string in the markup ("imgsrv:/I1.gif") resolves to a
:class:`MediaLocator` — the media server that stores the object and
the object's path/id on that server. The :class:`ContentIndex`
collects the locators of a document, giving the flow scheduler the
set of media servers to activate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hml.ast import (
    AudioElement,
    AudioVideoElement,
    HmlDocument,
    ImageElement,
    VideoElement,
)
from repro.media.types import MediaType

__all__ = ["MediaLocator", "ContentIndex"]


@dataclass(frozen=True, slots=True)
class MediaLocator:
    """Resolved storage location of one inline media entity."""

    element_id: str
    media_type: MediaType
    server: str  # media server name ("" = same host as the scenario)
    path: str

    @property
    def source(self) -> str:
        return f"{self.server}:{self.path}" if self.server else self.path


def _split_source(source: str) -> tuple[str, str]:
    if ":" in source:
        server, path = source.split(":", 1)
        return server, path
    return "", source


class ContentIndex:
    """Locators of every media element in a document, by id."""

    def __init__(self, locators: dict[str, MediaLocator]) -> None:
        self._locators = dict(locators)

    @classmethod
    def from_document(cls, doc: HmlDocument) -> "ContentIndex":
        locators: dict[str, MediaLocator] = {}

        def add(element_id: str, media_type: MediaType, source: str) -> None:
            server, path = _split_source(source)
            locators[element_id] = MediaLocator(
                element_id=element_id, media_type=media_type,
                server=server, path=path,
            )

        for e in doc.media_elements():
            if isinstance(e, ImageElement):
                add(e.element_id, MediaType.IMAGE, e.source)
            elif isinstance(e, AudioElement):
                add(e.element_id, MediaType.AUDIO, e.source)
            elif isinstance(e, VideoElement):
                add(e.element_id, MediaType.VIDEO, e.source)
            elif isinstance(e, AudioVideoElement):
                add(e.audio_id, MediaType.AUDIO, e.audio_source)
                add(e.video_id, MediaType.VIDEO, e.video_source)
        return cls(locators)

    def __len__(self) -> int:
        return len(self._locators)

    def __contains__(self, element_id: str) -> bool:
        return element_id in self._locators

    def get(self, element_id: str) -> MediaLocator:
        try:
            return self._locators[element_id]
        except KeyError:
            raise KeyError(f"no media element {element_id!r}") from None

    def ids(self) -> list[str]:
        return sorted(self._locators)

    def servers(self) -> set[str]:
        """The distinct media servers this document draws from."""
        return {loc.server for loc in self._locators.values() if loc.server}

    def by_server(self) -> dict[str, list[MediaLocator]]:
        out: dict[str, list[MediaLocator]] = {}
        for loc in self._locators.values():
            out.setdefault(loc.server, []).append(loc)
        for locs in out.values():
            locs.sort(key=lambda l: l.element_id)
        return out
