"""Synthetic frame-accurate media traces.

Substitution for the paper's real MPEG/AVI and PCM-family content
(see DESIGN.md): the mechanisms under study consume only frame sizes,
rates and timestamps, which these generators produce with controlled,
reproducible statistics.

* **Video** — GoP-structured (IBBPBBPBBPBB) frame sizes with I:P:B
  size ratios and an AR(1) log-normal rate modulation, the standard
  first-order model for VBR video; mean bitrate matches the active
  :class:`~repro.media.encodings.QualityGrade`.
* **Audio** — constant-size frames (one per 20 ms block), exact CBR.

Two consumption styles:

* bulk :func:`VideoTraceGenerator.generate` /
  :func:`AudioTraceGenerator.generate` build a whole
  :class:`MediaTrace` vectorized with numpy (used by tests and
  benchmarks);
* the stateful :class:`FrameSource` yields frames one at a time and
  supports **mid-stream regrading** — the hook the Media Stream
  Quality Converter uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.media.encodings import SUSPENDED, Codec, QualityGrade
from repro.media.types import ContinuousMediaObject, Frame, FrameKind, MediaType

__all__ = [
    "MediaTrace",
    "VideoTraceGenerator",
    "AudioTraceGenerator",
    "FrameSource",
    "trace_for_object",
    "GOP_PATTERN",
    "FRAME_SIZE_WEIGHTS",
]

#: lag-one correlation and innovation deviation of the AR(1) log-process
#: that modulates video frame sizes (scene activity)
RHO = 0.9
SIGMA = 0.12

#: Classic MPEG-1 group-of-pictures pattern (12 frames).
GOP_PATTERN: tuple[FrameKind, ...] = (
    FrameKind.I,
    FrameKind.B,
    FrameKind.B,
    FrameKind.P,
    FrameKind.B,
    FrameKind.B,
    FrameKind.P,
    FrameKind.B,
    FrameKind.B,
    FrameKind.P,
    FrameKind.B,
    FrameKind.B,
)

#: Relative size of each frame kind (I frames are largest).
FRAME_SIZE_WEIGHTS: dict[FrameKind, float] = {
    FrameKind.I: 2.5,
    FrameKind.P: 1.0,
    FrameKind.B: 0.5,
    FrameKind.SAMPLE: 1.0,
    FrameKind.BLOCK: 1.0,
}

_GOP_MEAN_WEIGHT = sum(FRAME_SIZE_WEIGHTS[k] for k in GOP_PATTERN) / len(GOP_PATTERN)


@dataclass(slots=True)
class MediaTrace:
    """A fully materialised frame sequence for one stream."""

    stream_id: str
    clock_rate: int
    frames: list[Frame]

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def duration_s(self) -> float:
        if not self.frames:
            return 0.0
        return self.frames[-1].end_time / self.clock_rate


def _ar1_lognormal_multipliers(
    n: int, rng: np.random.Generator, rho: float, sigma: float
) -> np.ndarray:
    """Mean-one log-normal AR(1) modulation series of length ``n``.

    The log-process x follows x_{t} = rho x_{t-1} + eps_t with
    stationary variance v = sigma^2/(1-rho^2); exp(x - v/2) then has
    unit mean, keeping the trace's long-run bitrate on target.
    """
    if n == 0:
        return np.empty(0)
    v = sigma * sigma / (1.0 - rho * rho)
    eps = rng.normal(0.0, sigma, size=n)
    x = np.empty(n)
    x[0] = rng.normal(0.0, np.sqrt(v))
    # scipy.signal.lfilter would also do; the explicit loop is clearer
    # and this is not a hot path (one call per stream per run).
    for i in range(1, n):
        x[i] = rho * x[i - 1] + eps[i]
    return np.exp(x - v / 2.0)


class VideoTraceGenerator:
    """GoP-structured VBR video trace generator."""

    def __init__(
        self,
        codec: Codec,
        rng: np.random.Generator,
    ) -> None:
        if codec.media_type is not MediaType.VIDEO:
            raise ValueError(f"codec {codec.name} is not video")
        self.codec = codec
        self.rng = rng

    def generate(
        self,
        stream_id: str,
        duration_s: float,
        grade_index: int = 0,
    ) -> MediaTrace:
        grade = self.codec.grade(grade_index)
        if grade is SUSPENDED:
            return MediaTrace(stream_id, self.codec.clock_rate, [])
        n = int(round(duration_s * grade.frame_rate))
        ticks = int(round(self.codec.clock_rate / grade.frame_rate))
        kinds = [GOP_PATTERN[i % len(GOP_PATTERN)] for i in range(n)]
        weights = np.array([FRAME_SIZE_WEIGHTS[k] for k in kinds])
        scale = grade.mean_frame_bytes / _GOP_MEAN_WEIGHT
        mult = _ar1_lognormal_multipliers(n, self.rng, RHO, SIGMA)
        sizes = np.maximum(1, np.rint(weights * scale * mult)).astype(np.int64)
        frames = [
            Frame(
                stream_id=stream_id,
                seq=i,
                media_time=i * ticks,
                duration=ticks,
                size_bytes=int(sizes[i]),
                kind=kinds[i],
                grade=grade_index,
            )
            for i in range(n)
        ]
        return MediaTrace(stream_id, self.codec.clock_rate, frames)


class AudioTraceGenerator:
    """Constant-bitrate audio trace generator (20 ms frames)."""

    def __init__(self, codec: Codec) -> None:
        if codec.media_type is not MediaType.AUDIO:
            raise ValueError(f"codec {codec.name} is not audio")
        self.codec = codec

    def generate(
        self,
        stream_id: str,
        duration_s: float,
        grade_index: int = 0,
    ) -> MediaTrace:
        grade = self.codec.grade(grade_index)
        if grade is SUSPENDED:
            return MediaTrace(stream_id, self.codec.clock_rate, [])
        n = int(round(duration_s * grade.frame_rate))
        ticks = int(round(self.codec.clock_rate / grade.frame_rate))
        size = max(1, int(round(grade.mean_frame_bytes)))
        frames = [
            Frame(
                stream_id=stream_id,
                seq=i,
                media_time=i * ticks,
                duration=ticks,
                size_bytes=size,
                kind=FrameKind.SAMPLE,
                grade=grade_index,
            )
            for i in range(n)
        ]
        return MediaTrace(stream_id, self.codec.clock_rate, frames)


class FrameSource:
    """Stateful frame producer with mid-stream regrade support.

    The media server pulls :meth:`next_frame` once per frame interval;
    the Media Stream Quality Converter calls :meth:`set_grade` when
    the Server QoS Manager decides to degrade or upgrade. While the
    grade is the SUSPENDED sentinel, :meth:`next_frame` returns
    ``None`` but media time keeps advancing, so a later upgrade
    resumes at the correct point in the scenario timeline.
    """

    def __init__(
        self,
        stream_id: str,
        codec: Codec,
        rng: np.random.Generator,
        grade_index: int = 0,
    ) -> None:
        self.stream_id = stream_id
        self.codec = codec
        self.rng = rng
        #: stationary variance of the AR(1) log-process
        self._log_var = SIGMA**2 / (1.0 - RHO**2)
        self._video = codec.media_type is MediaType.VIDEO
        self._seq = 0
        self._media_time = 0
        self._frame_in_gop = 0
        self._log_state: float | None = None
        self.set_grade(grade_index)

    @property
    def media_time_s(self) -> float:
        return self._media_time / self.codec.clock_rate

    def set_grade(self, index: int) -> None:
        """Regrade. ``grade_index``, ``grade``, ``frame_interval_s`` and
        the sizes derived from them are set here and nowhere else, so
        :meth:`next_frame` pays only for what changes per frame."""
        if index < 0:
            raise ValueError(f"grade index must be >= 0, got {index}")
        self.grade_index = index
        self.grade: QualityGrade = self.codec.grade(index)
        # While suspended, advance media time in nominal best-grade
        # steps so the stream stays aligned with the scenario.
        self.frame_interval_s: float = (
            self.codec.best if self.grade is SUSPENDED else self.grade
        ).frame_interval_s
        self._ticks = int(round(self.codec.clock_rate * self.frame_interval_s))
        scale = self.grade.mean_frame_bytes / _GOP_MEAN_WEIGHT
        #: mean bytes of the frame at each GoP position (video)
        self._gop_bytes = [FRAME_SIZE_WEIGHTS[kind] * scale
                           for kind in GOP_PATTERN]
        self._audio_bytes = max(1, int(round(self.grade.mean_frame_bytes)))

    def fast_forward(self, media_time_s: float) -> None:
        """Jump to a later point in the scenario timeline.

        Used when a replica takes over a crashed server's stream: the
        replacement source must resume at the media position the dead
        one had reached, not from zero. Only forward jumps are allowed;
        the GoP phase is realigned so frame kinds stay periodic across
        the switch.
        """
        target = int(round(media_time_s * self.codec.clock_rate))
        if target < self._media_time:
            raise ValueError(
                f"cannot rewind {self.stream_id}: at {self.media_time_s:.3f}s,"
                f" asked for {media_time_s:.3f}s"
            )
        ticks = self._ticks
        skipped = 0 if ticks <= 0 else (target - self._media_time) // ticks
        self._media_time += skipped * ticks
        self._frame_in_gop += skipped
        self._seq += skipped

    def next_frame(self) -> Frame | None:
        """Produce the next frame (or ``None`` while suspended)."""
        media_time = self._media_time
        self._media_time = media_time + self._ticks
        if self.grade is SUSPENDED:
            return None
        if self._video:
            phase = self._frame_in_gop % len(GOP_PATTERN)
            self._frame_in_gop += 1
            kind = GOP_PATTERN[phase]
            # one draw from the object's (shared) stream per frame
            if self._log_state is None:
                state = float(self.rng.normal(0.0, np.sqrt(self._log_var)))
            else:
                state = RHO * self._log_state + float(
                    self.rng.normal(0.0, SIGMA))
            self._log_state = state
            size = max(1, int(round(self._gop_bytes[phase] * float(
                np.exp(state - self._log_var / 2.0)))))
        else:
            kind = FrameKind.SAMPLE
            size = self._audio_bytes
        seq = self._seq
        self._seq = seq + 1
        return tuple.__new__(Frame, (  # Frame(...) without its wrapper
            self.stream_id, seq, media_time, self._ticks, size, kind,
            self.grade_index))


def trace_for_object(
    obj: ContinuousMediaObject,
    codec: Codec,
    rng: np.random.Generator,
    grade_index: int = 0,
) -> MediaTrace:
    """Materialise the full trace of a stored continuous media object."""
    if codec.media_type is not obj.media_type:
        raise ValueError(
            f"codec {codec.name} ({codec.media_type}) does not match "
            f"object {obj.object_id} ({obj.media_type})"
        )
    if obj.media_type is MediaType.VIDEO:
        gen = VideoTraceGenerator(codec, rng)
        return gen.generate(obj.object_id, obj.duration_s, grade_index)
    gen = AudioTraceGenerator(codec)
    return gen.generate(obj.object_id, obj.duration_s, grade_index)
