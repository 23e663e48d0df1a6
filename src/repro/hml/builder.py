"""Fluent authoring API for HML documents.

The builder is what "authors" (lesson designers in Hermes, workload
generators in the benchmarks) use instead of hand-writing markup; it
produces the same AST the parser does.
"""

from __future__ import annotations

from repro.hml.ast import (
    AudioElement,
    AudioVideoElement,
    Heading,
    HmlDocument,
    HyperLink,
    ImageElement,
    LinkKind,
    Paragraph,
    Separator,
    TextBlock,
    TextSpan,
    VideoElement,
)

__all__ = ["DocumentBuilder"]


class DocumentBuilder:
    """Chainable builder; call :meth:`build` to obtain the document."""

    def __init__(self, title: str) -> None:
        if not title.strip():
            raise ValueError("document title must be non-empty")
        self._doc = HmlDocument(title=title.strip())

    # -- structure -------------------------------------------------------
    def heading(self, level: int, text: str) -> "DocumentBuilder":
        self._doc.elements.append(Heading(level=level, text=text))
        return self

    def paragraph(self) -> "DocumentBuilder":
        self._doc.elements.append(Paragraph())
        return self

    def separator(self) -> "DocumentBuilder":
        self._doc.elements.append(Separator())
        return self

    def text(self, *spans: str | TextSpan) -> "DocumentBuilder":
        converted = tuple(
            s if isinstance(s, TextSpan) else TextSpan(str(s)) for s in spans
        )
        if not converted:
            raise ValueError("text() requires at least one span")
        self._doc.elements.append(TextBlock(spans=converted))
        return self

    # -- media -----------------------------------------------------------
    def image(
        self,
        source: str,
        element_id: str,
        startime: float = 0.0,
        duration: float | None = None,
        width: int | None = None,
        height: int | None = None,
        where: tuple[int, int] | None = None,
        note: str = "",
    ) -> "DocumentBuilder":
        self._doc.elements.append(
            ImageElement(source=source, element_id=element_id, startime=startime,
                         duration=duration, width=width, height=height,
                         where=where, note=note)
        )
        return self

    def audio(
        self,
        source: str,
        element_id: str,
        startime: float = 0.0,
        duration: float | None = None,
        note: str = "",
        repeat: int = 1,
    ) -> "DocumentBuilder":
        self._doc.elements.append(
            AudioElement(source=source, element_id=element_id,
                         startime=startime, duration=duration, note=note,
                         repeat=repeat)
        )
        return self

    def video(
        self,
        source: str,
        element_id: str,
        startime: float = 0.0,
        duration: float | None = None,
        note: str = "",
    ) -> "DocumentBuilder":
        self._doc.elements.append(
            VideoElement(source=source, element_id=element_id,
                         startime=startime, duration=duration, note=note)
        )
        return self

    def audio_video(
        self,
        audio_source: str,
        video_source: str,
        audio_id: str,
        video_id: str,
        startime: float = 0.0,
        duration: float | None = None,
        note: str = "",
    ) -> "DocumentBuilder":
        """Synchronized pair: both media share the start time."""
        self._doc.elements.append(
            AudioVideoElement(
                audio_source=audio_source, video_source=video_source,
                audio_id=audio_id, video_id=video_id,
                audio_startime=startime, video_startime=startime,
                duration=duration, note=note,
            )
        )
        return self

    # -- links -------------------------------------------------------------
    def hyperlink(
        self,
        target: str,
        kind: LinkKind | None = None,
        at_time: float | None = None,
        note: str = "",
    ) -> "DocumentBuilder":
        if kind is None:
            kind = LinkKind.SEQUENTIAL if at_time is not None \
                else LinkKind.EXPLORATIONAL
        self._doc.elements.append(
            HyperLink(target=target, kind=kind, at_time=at_time, note=note)
        )
        return self

    def build(self) -> HmlDocument:
        return self._doc
