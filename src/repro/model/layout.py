"""Layout abstraction: placing media on the user's desktop.

"The layout consists of a set of rules that internally specify how
the different media will be presented on the user's desktop" (§3).
Elements with explicit WHERE coordinates are placed there; the rest
flow vertically in document order, the way an HTML-era browser laid
out a page.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hml.ast import (
    AudioElement,
    AudioVideoElement,
    Heading,
    HmlDocument,
    ImageElement,
    Paragraph,
    Separator,
    TextBlock,
    VideoElement,
)

__all__ = ["Region", "DisplayLayout", "LayoutEngine"]

CANVAS_WIDTH = 800
CANVAS_HEIGHT = 600
_HEADING_HEIGHTS = {1: 40, 2: 32, 3: 26}
_TEXT_LINE_HEIGHT = 18
_TEXT_CHARS_PER_LINE = 80
_DEFAULT_IMAGE = (320, 240)
_VIDEO_REGION = (320, 240)
_PARAGRAPH_GAP = 12
_SEPARATOR_GAP = 8


@dataclass(frozen=True, slots=True)
class Region:
    """A rectangle on the client's display, in pixels."""

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("region must have positive extent")

    @property
    def x2(self) -> int:
        return self.x + self.width

    @property
    def y2(self) -> int:
        return self.y + self.height


@dataclass(slots=True)
class DisplayLayout:
    """Resolved layout: element key → display region.

    Keys are media element ids; structural elements get synthetic
    keys ("heading:0", "text:1", ...) by document position.
    """

    canvas_width: int
    canvas_height: int
    regions: dict[str, Region]

    def region(self, key: str) -> Region:
        try:
            return self.regions[key]
        except KeyError:
            raise KeyError(f"no layout region for {key!r}") from None

    def visual_keys(self) -> list[str]:
        return sorted(self.regions)


class LayoutEngine:
    """Computes a :class:`DisplayLayout` from a document."""

    def layout(self, doc: HmlDocument) -> DisplayLayout:
        regions: dict[str, Region] = {}
        cursor_y = 0
        for idx, e in enumerate(doc.elements):
            if isinstance(e, Heading):
                h = _HEADING_HEIGHTS[e.level]
                regions[f"heading:{idx}"] = Region(0, cursor_y,
                                                   CANVAS_WIDTH, h)
                cursor_y += h
            elif isinstance(e, TextBlock):
                chars = len(e.plain_text)
                lines = max(1, -(-chars // _TEXT_CHARS_PER_LINE))
                h = lines * _TEXT_LINE_HEIGHT
                regions[f"text:{idx}"] = Region(0, cursor_y,
                                                CANVAS_WIDTH, h)
                cursor_y += h
            elif isinstance(e, Paragraph):
                cursor_y += _PARAGRAPH_GAP
            elif isinstance(e, Separator):
                cursor_y += _SEPARATOR_GAP
            elif isinstance(e, ImageElement):
                w = e.width or _DEFAULT_IMAGE[0]
                h = e.height or _DEFAULT_IMAGE[1]
                if e.where is not None:
                    regions[e.element_id] = Region(e.where[0], e.where[1], w, h)
                else:
                    regions[e.element_id] = Region(0, cursor_y, w, h)
                    cursor_y += h
            elif isinstance(e, VideoElement):
                w, h = _VIDEO_REGION
                regions[e.element_id] = Region(0, cursor_y, w, h)
                cursor_y += h
            elif isinstance(e, AudioVideoElement):
                w, h = _VIDEO_REGION
                regions[e.video_id] = Region(0, cursor_y, w, h)
                cursor_y += h
            elif isinstance(e, AudioElement):
                pass  # audio has no display region
        return DisplayLayout(
            canvas_width=CANVAS_WIDTH,
            canvas_height=CANVAS_HEIGHT,
            regions=regions,
        )
