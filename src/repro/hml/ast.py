"""Abstract syntax tree for HML documents.

The node set mirrors the paper's Figure 1 grammar: a document has a
TITLE and a sequence of sentences built from headings, paragraph and
separator marks, text blocks (with bold/italic/underline spans),
timed media elements (image/audio/video and the synchronized
audio+video pair) and hyperlinks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "HmlDocument",
    "HmlElement",
    "Heading",
    "Paragraph",
    "Separator",
    "TextSpan",
    "TextBlock",
    "ImageElement",
    "AudioElement",
    "VideoElement",
    "AudioVideoElement",
    "LinkKind",
    "HyperLink",
]


class HmlElement:
    """Marker base class for document body elements."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Heading(HmlElement):
    level: int  # 1..3
    text: str

    def __post_init__(self) -> None:
        if self.level not in (1, 2, 3):
            raise ValueError(f"heading level must be 1..3, got {self.level}")


@dataclass(frozen=True, slots=True)
class Paragraph(HmlElement):
    """Paragraph break (PAR)."""


@dataclass(frozen=True, slots=True)
class Separator(HmlElement):
    """Horizontal separator (SEP)."""


@dataclass(frozen=True, slots=True)
class TextSpan:
    text: str
    bold: bool = False
    italic: bool = False
    underline: bool = False


@dataclass(frozen=True, slots=True)
class TextBlock(HmlElement):
    spans: tuple[TextSpan, ...]

    @property
    def plain_text(self) -> str:
        return "".join(s.text for s in self.spans)


@dataclass(frozen=True, slots=True)
class ImageElement(HmlElement):
    source: str
    element_id: str
    startime: float = 0.0
    duration: float | None = None  # None: shown until scenario end
    width: int | None = None
    height: int | None = None
    where: tuple[int, int] | None = None  # display coordinates
    note: str = ""
    #: play the media this many times back-to-back (§7 extension)
    repeat: int = 1


@dataclass(frozen=True, slots=True)
class AudioElement(HmlElement):
    source: str
    element_id: str
    startime: float = 0.0
    duration: float | None = None
    note: str = ""
    #: play the media this many times back-to-back (§7 extension)
    repeat: int = 1


@dataclass(frozen=True, slots=True)
class VideoElement(HmlElement):
    source: str
    element_id: str
    startime: float = 0.0
    duration: float | None = None
    note: str = ""
    #: play the media this many times back-to-back (§7 extension)
    repeat: int = 1


@dataclass(frozen=True, slots=True)
class AudioVideoElement(HmlElement):
    """Synchronized audio+video pair.

    "The two media should start and stop playing at the same time"
    (§3.1): the pair carries two sources/ids and two STARTIMEs (the
    grammar's SyncOption), which the validator requires to be equal.
    """

    audio_source: str
    video_source: str
    audio_id: str
    video_id: str
    audio_startime: float = 0.0
    video_startime: float = 0.0
    duration: float | None = None
    note: str = ""

    @property
    def startime(self) -> float:
        return self.audio_startime


class LinkKind(enum.Enum):
    """Paper §3: sequential links preserve the author's order;
    explorational links branch to related material."""

    SEQUENTIAL = "sequential"
    EXPLORATIONAL = "explorational"


@dataclass(frozen=True, slots=True)
class HyperLink(HmlElement):
    target: str  # document name, optionally "host:doc" for other hosts
    kind: LinkKind = LinkKind.EXPLORATIONAL
    at_time: float | None = None  # auto-follow time (AT keyword)
    note: str = ""

    @property
    def target_host(self) -> str | None:
        """Host part for cross-server links ("host:document")."""
        if ":" in self.target:
            return self.target.split(":", 1)[0]
        return None

    @property
    def target_document(self) -> str:
        if ":" in self.target:
            return self.target.split(":", 1)[1]
        return self.target


@dataclass(slots=True)
class HmlDocument:
    """A parsed hypermedia document."""

    title: str
    elements: list[HmlElement] = field(default_factory=list)

    def media_elements(self) -> list[HmlElement]:
        return [
            e
            for e in self.elements
            if isinstance(
                e, (ImageElement, AudioElement, VideoElement, AudioVideoElement)
            )
        ]

    def hyperlinks(self) -> list[HyperLink]:
        return [e for e in self.elements if isinstance(e, HyperLink)]

    def element_ids(self) -> list[str]:
        ids: list[str] = []
        for e in self.media_elements():
            if isinstance(e, AudioVideoElement):
                ids.extend([e.audio_id, e.video_id])
            else:
                ids.append(e.element_id)  # type: ignore[union-attr]
        return ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HmlDocument):
            return NotImplemented
        return self.title == other.title and self.elements == other.elements
