"""Media object and frame types.

Two families of media, following the paper's taxonomy:

* *discrete* (non time-sensitive) — text, images, graphics; delivered
  whole over the reliable channel;
* *continuous* (time-sensitive) — audio, video; delivered as timed
  frames over RTP/UDP and subject to buffering, skew control and
  quality grading.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "MediaType",
    "FrameKind",
    "Frame",
    "MediaObject",
    "DiscreteMediaObject",
    "ContinuousMediaObject",
]


class MediaType(enum.Enum):
    """The five media types the markup language distinguishes."""

    TEXT = "text"
    IMAGE = "image"
    GRAPHICS = "graphics"
    AUDIO = "audio"
    VIDEO = "video"

    @property
    def is_continuous(self) -> bool:
        return self in (MediaType.AUDIO, MediaType.VIDEO)

    @property
    def is_discrete(self) -> bool:
        return not self.is_continuous


class FrameKind(enum.Enum):
    """Frame classification within a continuous stream."""

    I = "I"  # intra-coded video frame (noqa: E741 - domain name)
    P = "P"  # predicted video frame
    B = "B"  # bidirectional video frame
    SAMPLE = "sample"  # audio frame (block of samples)
    BLOCK = "block"  # generic data block (discrete media chunk)


class Frame(NamedTuple):
    """One playable unit of a continuous stream.

    ``media_time`` is in integer ticks of the codec clock (RTP-style,
    e.g. 90 000 Hz for video, the sampling rate for audio), avoiding
    float drift in sync computations. ``duration`` is also in ticks.
    A named tuple: immutable, and one ``tuple.__new__`` per frame pumped.
    """

    stream_id: str
    seq: int
    media_time: int
    duration: int
    size_bytes: int
    kind: FrameKind
    grade: int = 0  # index into the codec's quality ladder at encode time

    @property
    def end_time(self) -> int:
        return self.media_time + self.duration


@dataclass(slots=True)
class MediaObject:
    """Base descriptor for a stored media object."""

    object_id: str
    media_type: MediaType
    encoding: str

    def __post_init__(self) -> None:
        if not self.object_id:
            raise ValueError("object_id must be non-empty")


@dataclass(slots=True)
class DiscreteMediaObject(MediaObject):
    """Text/image/graphics object: a single sized blob."""

    size_bytes: int = 0

    def __post_init__(self) -> None:
        MediaObject.__post_init__(self)
        if self.media_type.is_continuous:
            raise ValueError(
                f"{self.media_type} is continuous; use ContinuousMediaObject"
            )
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")


@dataclass(slots=True)
class ContinuousMediaObject(MediaObject):
    """Audio/video object: a timed sequence of frames.

    ``duration_s`` is the nominal playout duration; the actual frame
    trace is synthesized on demand (see :mod:`repro.media.traces`)
    with a per-object deterministic RNG stream.
    """

    duration_s: float = 0.0

    def __post_init__(self) -> None:
        MediaObject.__post_init__(self)
        if not self.media_type.is_continuous:
            raise ValueError(
                f"{self.media_type} is discrete; use DiscreteMediaObject"
            )
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")

    @property
    def trace_seed_name(self) -> str:
        """The RNG stream this object's frame trace is drawn from."""
        return f"trace:{self.object_id}"
