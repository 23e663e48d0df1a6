"""Codec registry and quality-grade ladders.

The paper's long-term synchronization recovery "gracefully degrades
(upgrades) the stream's quality, e.g. by increasing (decreasing) video
compression factor or decreasing (increasing) audio sampling
frequency", between thresholds the user accepted at connection time,
down to a bottom rung where "the service may choose to stop
transmitting the specific stream".

We model that as an ordered *ladder* of :class:`QualityGrade` rungs
per codec, grade 0 being the best. The sentinel :data:`SUSPENDED`
grade (infinite index, zero bitrate) models the stop-transmitting
rung. The concrete rates follow the paper's protocol stack (Figure 5):
MPEG/AVI video, PCM → ADPCM → VADPCM audio, GIF/TIFF/BMP/JPEG images.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.media.types import MediaType

__all__ = [
    "QualityGrade",
    "Codec",
    "CodecRegistry",
    "VIDEO_LADDER",
    "AUDIO_LADDER",
    "IMAGE_ENCODINGS",
    "SUSPENDED",
    "default_registry",
]


@dataclass(frozen=True, slots=True)
class QualityGrade:
    """One rung of a codec's quality ladder.

    ``quality_score`` is a perceptual proxy in [0, 1] used only for
    reporting (delivered-quality profiles in the experiments);
    mechanisms act on ``bitrate_bps``/``frame_rate`` alone.
    """

    index: int
    label: str
    bitrate_bps: int
    frame_rate: float  # video frames/s or audio frames/s (blocks)
    quality_score: float
    detail: str = ""  # e.g. "compression x2" / "8 kHz sampling"

    def __post_init__(self) -> None:
        if self.bitrate_bps < 0:
            raise ValueError("bitrate must be >= 0")
        if not (0.0 <= self.quality_score <= 1.0):
            raise ValueError("quality_score must be in [0, 1]")

    @property
    def frame_interval_s(self) -> float:
        if self.frame_rate <= 0:
            return float("inf")
        return 1.0 / self.frame_rate

    @property
    def mean_frame_bytes(self) -> float:
        if self.frame_rate <= 0:
            return 0.0
        return self.bitrate_bps / 8.0 / self.frame_rate


#: Sentinel rung: stream transmission suspended (paper: "the service
#: may choose to stop transmitting the specific stream").
SUSPENDED = QualityGrade(
    index=10_000,
    label="suspended",
    bitrate_bps=0,
    frame_rate=0.0,
    quality_score=0.0,
    detail="transmission stopped at bottom threshold",
)


#: MPEG-1-era video ladder: grade 0 is full quality; deeper grades
#: raise the compression factor and finally halve the frame rate.
VIDEO_LADDER: tuple[QualityGrade, ...] = (
    QualityGrade(0, "video/full", 1_500_000, 25.0, 1.00, "compression x1"),
    QualityGrade(1, "video/high", 1_000_000, 25.0, 0.85, "compression x1.5"),
    QualityGrade(2, "video/medium", 750_000, 25.0, 0.70, "compression x2"),
    QualityGrade(3, "video/low", 500_000, 25.0, 0.55, "compression x3"),
    QualityGrade(4, "video/minimal", 250_000, 12.5, 0.35, "compression x6, half rate"),
)

#: Audio ladder following the paper's supported standards:
#: PCM (64 kb/s, 8 kHz) -> ADPCM (32 kb/s) -> VADPCM (16 kb/s).
AUDIO_LADDER: tuple[QualityGrade, ...] = (
    QualityGrade(0, "audio/pcm", 64_000, 50.0, 1.00, "PCM 8 kHz"),
    QualityGrade(1, "audio/adpcm", 32_000, 50.0, 0.80, "ADPCM 8 kHz"),
    QualityGrade(2, "audio/vadpcm", 16_000, 50.0, 0.60, "VADPCM 8 kHz"),
)

#: Discrete image encodings (paper Figure 5). Static: no ladder.
IMAGE_ENCODINGS: tuple[str, ...] = ("GIF", "TIFF", "BMP", "JPEG")


@dataclass(slots=True)
class Codec:
    """A named codec with its clock rate and quality ladder."""

    name: str
    media_type: MediaType
    clock_rate: int  # media ticks per second (RTP clock)
    ladder: tuple[QualityGrade, ...]
    payload_type: int  # RTP payload-type number

    def __post_init__(self) -> None:
        if self.clock_rate <= 0:
            raise ValueError("clock_rate must be positive")
        if not self.ladder:
            raise ValueError("ladder must have at least one grade")
        indices = [g.index for g in self.ladder]
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            raise ValueError("ladder indices must be strictly increasing")
        rates = [g.bitrate_bps for g in self.ladder]
        if rates != sorted(rates, reverse=True):
            raise ValueError("ladder bitrates must be non-increasing")

    @property
    def num_grades(self) -> int:
        return len(self.ladder)

    @property
    def best(self) -> QualityGrade:
        return self.ladder[0]

    @property
    def worst(self) -> QualityGrade:
        return self.ladder[-1]

    def grade(self, index: int) -> QualityGrade:
        """Return the grade at ladder position ``index``.

        Index ``>= num_grades`` (or the SUSPENDED sentinel index)
        resolves to :data:`SUSPENDED` — the below-bottom-threshold
        state.
        """
        if index < 0:
            raise IndexError(f"grade index must be >= 0, got {index}")
        if index >= len(self.ladder):
            return SUSPENDED
        return self.ladder[index]

    def degrade(self, current: int) -> int:
        """One rung worse (clamps at the suspend sentinel)."""
        if current >= len(self.ladder):
            return current
        return current + 1

    def upgrade(self, current: int) -> int:
        """One rung better (clamps at grade 0).

        From the suspended state the stream re-enters at the ladder's
        worst real rung rather than jumping straight to full quality.
        """
        if current > len(self.ladder):
            return len(self.ladder) - 1
        return max(0, current - 1)


class CodecRegistry:
    """Lookup of codecs by name; supplies defaults per media type."""

    def __init__(self) -> None:
        self._codecs: dict[str, Codec] = {}
        self._default_for: dict[MediaType, str] = {}

    def register(self, codec: Codec, default: bool = False) -> None:
        if codec.name in self._codecs:
            raise ValueError(f"codec {codec.name!r} already registered")
        self._codecs[codec.name] = codec
        if default or codec.media_type not in self._default_for:
            self._default_for[codec.media_type] = codec.name

    def get(self, name: str) -> Codec:
        try:
            return self._codecs[name]
        except KeyError:
            raise KeyError(f"unknown codec {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._codecs

    def default_for(self, media_type: MediaType) -> Codec:
        try:
            return self._codecs[self._default_for[media_type]]
        except KeyError:
            raise KeyError(f"no codec registered for {media_type}") from None

    def names(self) -> list[str]:
        return sorted(self._codecs)


def default_registry() -> CodecRegistry:
    """Registry with the paper's codec set (Figure 5)."""
    reg = CodecRegistry()
    reg.register(
        Codec("MPEG", MediaType.VIDEO, clock_rate=90_000, ladder=VIDEO_LADDER,
              payload_type=32),
        default=True,
    )
    # AVI at the era was a lightly-compressed container: model it as the
    # same ladder at a higher rate ceiling (chosen "depending on the
    # availability of bandwidth" per the paper).
    avi_ladder = tuple(
        QualityGrade(g.index, g.label.replace("video", "avi"),
                     g.bitrate_bps * 2, g.frame_rate, g.quality_score, g.detail)
        for g in VIDEO_LADDER
    )
    reg.register(
        Codec("AVI", MediaType.VIDEO, clock_rate=90_000, ladder=avi_ladder,
              payload_type=33)
    )
    reg.register(
        Codec("PCM-family", MediaType.AUDIO, clock_rate=8_000,
              ladder=AUDIO_LADDER, payload_type=0),
        default=True,
    )
    return reg
