"""Quality-of-Presentation metrics.

Every playout process logs its events here; the experiment harness
derives the quantities the paper's mechanisms are meant to improve:
playout gaps (intramedia synchronization failures), rebuffering
episodes, startup latency, intermedia skew statistics and the
delivered-quality profile.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from repro.des import Simulator

__all__ = ["PlayoutEventKind", "PlayoutEvent", "StreamTally", "PlayoutTally",
           "PlayoutEventLog", "SkewSeries"]

#: Lip-sync tolerance from the synchronization literature the paper
#: builds on (Steinmetz): ±80 ms is where audio/video skew becomes
#: perceptible.
DEFAULT_SYNC_THRESHOLD_S = 0.080


class PlayoutEventKind(enum.Enum):
    START = "start"  # stream playout began
    FRAME = "frame"  # a frame was presented
    GAP = "gap"  # deadline passed with no frame available
    DUPLICATE = "duplicate"  # a frame was repeated (skew/underflow action)
    DROP = "drop"  # a frame was discarded (skew/overflow action)
    STOP = "stop"  # stream playout finished
    SHOW = "show"  # discrete media displayed
    HIDE = "hide"  # discrete media removed
    PAUSE = "pause"
    RESUME = "resume"


class PlayoutEvent(NamedTuple):
    time: float  # simulation time
    stream_id: str
    kind: PlayoutEventKind
    media_time_s: float = 0.0
    grade: int = 0
    #: the frame presented or discarded (None: not a frame event, or a
    #: caller that did not say which)
    frame_seq: int | None = None


@dataclass(slots=True)
class StreamTally:
    """One stream's share of a :class:`PlayoutTally`."""

    frames: int = 0
    gaps: int = 0
    duplicates: int = 0
    drops: int = 0
    #: sum of the grades of the presented frames
    grade_sum: int = 0
    #: the frames presented and when, in log order (FRAME events whose
    #: caller said which frame)
    played_seqs: list[int] = field(default_factory=list)
    played_at: list[float] = field(default_factory=list)

    def summary(self) -> dict[str, float]:
        total = self.frames + self.duplicates + self.gaps
        return {
            "frames": self.frames,
            "gaps": self.gaps,
            "duplicates": self.duplicates,
            "drops": self.drops,
            "gap_ratio": 0.0 if total == 0 else self.gaps / total,
            "mean_grade": (self.grade_sum / self.frames
                           if self.frames else 0.0),
        }


@dataclass(slots=True)
class PlayoutTally:
    """What one pass over a playout log yields (:meth:`PlayoutEventLog.tally`)."""

    #: events covered; the log reuses the tally until it has grown
    n_events: int = 0
    streams: dict[str, StreamTally] = field(default_factory=dict)
    #: earliest FRAME or SHOW: what startup latency is measured to
    first_shown_s: float | None = None
    #: earliest FRAME or START: where QoE's startup delay ends
    first_play_s: float | None = None
    #: instant of every GAP, any stream, in log order
    gap_times: list[float] = field(default_factory=list)

    def summary(self, stream_id: str) -> dict[str, float]:
        return self.streams.get(stream_id, StreamTally()).summary()


class PlayoutEventLog:
    """Chronological event log with derived QoP statistics.

    Built with a simulator, the log forwards its events to the
    simulator's tracer as ``playout.*``, stamped with ``session``
    (``sim=None``: a standalone log, never traced). FRAME events are
    the hot path (one per presented frame): they are traced only on the
    detail tier and when the caller supplies the frame id, so the
    lifecycle correlator can close each frame's span. Gaps, drops,
    duplicates and lifecycle events always carry the diagnostic signal.
    """

    def __init__(self, sim: Simulator | None = None,
                 session: str = "") -> None:
        self.sim = sim
        self.session = session
        self.events: list[PlayoutEvent] = []
        self._tally: PlayoutTally | None = None

    def record(
        self,
        time: float,
        stream_id: str,
        kind: PlayoutEventKind,
        media_time_s: float = 0.0,
        grade: int = 0,
        frame_seq: int | None = None,
        reason: str = "",
    ) -> None:
        self.events.append(tuple.__new__(  # PlayoutEvent(...), unwrapped
            PlayoutEvent,
            (time, stream_id, kind, media_time_s, grade, frame_seq)))
        sim = self.sim
        if sim is not None and sim._tracing:
            if kind is PlayoutEventKind.FRAME and (
                    not sim._tracing_detail or frame_seq is None):
                return
            extra: dict[str, object] = {}
            if frame_seq is not None:
                extra["frame"] = frame_seq
            if reason:
                extra["reason"] = reason
            sim._tracer.emit(time, f"playout.{kind.value}", stream_id,
                             session=self.session,
                             media_time_s=media_time_s, grade=grade,
                             **extra)

    # -- selections -----------------------------------------------------
    def count(self, kind: PlayoutEventKind, stream_id: str | None = None) -> int:
        return sum(
            1
            for e in self.events
            if e.kind is kind and (stream_id is None or e.stream_id == stream_id)
        )

    # -- derived QoP ------------------------------------------------------
    def start_time(self, stream_id: str) -> float | None:
        """First presentation instant: START for continuous streams,
        SHOW for discrete elements."""
        for e in self.events:
            if e.stream_id == stream_id and e.kind in (
                PlayoutEventKind.START, PlayoutEventKind.SHOW
            ):
                return e.time
        return None

    def gap_count(self, stream_id: str | None = None) -> int:
        return self.count(PlayoutEventKind.GAP, stream_id)

    def tally(self) -> PlayoutTally:
        """Everything result collection reads off the log, in one pass.

        Kept until the log grows, so the per-stream summaries and the
        QoE inputs of one session share a single walk.
        """
        events = self.events
        tally = self._tally
        if tally is not None and tally.n_events == len(events):
            return tally
        tally = self._tally = PlayoutTally(n_events=len(events))
        streams = tally.streams
        gap_times = tally.gap_times
        kinds = PlayoutEventKind
        # Branch on identity: an enum member hashes through a Python
        # ``__hash__``, a call per event if kinds were dictionary keys.
        frame, gap, duplicate, drop, start, show = (
            kinds.FRAME, kinds.GAP, kinds.DUPLICATE, kinds.DROP,
            kinds.START, kinds.SHOW)
        inf = float("inf")
        first_shown = first_play = inf
        for e in events:
            kind = e.kind
            stream = streams.get(e.stream_id)
            if stream is None:
                stream = streams[e.stream_id] = StreamTally()
            if kind is frame:
                stream.frames += 1
                stream.grade_sum += e.grade
                if e.frame_seq is not None:
                    stream.played_seqs.append(e.frame_seq)
                    stream.played_at.append(e.time)
                if e.time < first_shown:
                    first_shown = e.time
                if e.time < first_play:
                    first_play = e.time
            elif kind is gap:
                stream.gaps += 1
                gap_times.append(e.time)
            elif kind is duplicate:
                stream.duplicates += 1
            elif kind is drop:
                stream.drops += 1
            elif kind is start:
                if e.time < first_play:
                    first_play = e.time
            elif kind is show and e.time < first_shown:
                first_shown = e.time
        if first_shown < inf:
            tally.first_shown_s = first_shown
        if first_play < inf:
            tally.first_play_s = first_play
        return tally

    def summary(self, stream_id: str) -> dict[str, float]:
        return self.tally().summary(stream_id)


class SkewSeries:
    """Time series of intermedia skew samples for one sync group.

    Skew convention: (slave presented media time) − (master presented
    media time), in seconds, sampled at slave playout instants.
    """

    def __init__(self, group: str) -> None:
        self.group = group
        self.threshold_s = DEFAULT_SYNC_THRESHOLD_S
        self.times: list[float] = []
        self.skews: list[float] = []

    def __len__(self) -> int:
        return len(self.skews)

    @property
    def max_abs_s(self) -> float:
        return float(np.max(np.abs(self.skews))) if self.skews else 0.0

    @property
    def mean_abs_s(self) -> float:
        return float(np.mean(np.abs(self.skews))) if self.skews else 0.0

    @property
    def fraction_out_of_sync(self) -> float:
        if not self.skews:
            return 0.0
        out = np.abs(np.asarray(self.skews)) > self.threshold_s
        return float(np.mean(out))
