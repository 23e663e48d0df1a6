"""Synchronization abstraction: the playout schedule.

"In this preprocessing, every media stream S_i is recognized by its
corresponding language rule and a structure E_i is informed. This
structure contains the stream's S_i timing parameters like start time
t_i and duration d_i, the corresponding data position in the
temporary storage mechanisms (media buffers), and other useful
information" (§3.1).

:class:`PlayoutEntry` is that E_i structure; :func:`build_playout_schedule`
is the client's preprocessing step; :func:`ascii_timeline` renders the
schedule the way the paper's Figure 2 timeline does; :func:`check_bandwidth`
is what it costs, to the linter and to admission at ``request-doc`` (§4).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.hml.ast import (
    AudioElement,
    AudioVideoElement,
    HmlDocument,
    ImageElement,
    VideoElement,
)
from repro.media.encodings import CodecRegistry, default_registry
from repro.media.types import MediaType

__all__ = [
    "BandwidthVerdict",
    "PlayoutEntry",
    "bandwidth_profile",
    "build_playout_schedule",
    "check_bandwidth",
    "scenario_duration",
    "ascii_timeline",
]


@dataclass(frozen=True, slots=True)
class PlayoutEntry:
    """The paper's E_i structure for one media stream.

    ``sync_group`` names the intermedia-synchronization group (AU_VI
    pairs share one); ``is_sync_master`` marks the group's reference
    stream — audio, since "users can tolerate lower video quality
    rather than 'not hear well'" makes audio the anchor. The media
    buffer an entry binds ("the corresponding data position in the
    temporary storage mechanisms") is keyed by its ``stream_id``.
    """

    stream_id: str
    media_type: MediaType
    source: str
    start_time: float  # t_i, relative to presentation start
    duration: float | None  # d_i (None = open-ended)
    sync_group: str | None = None
    is_sync_master: bool = False
    note: str = ""

    @property
    def end_time(self) -> float | None:
        if self.duration is None:
            return None
        return self.start_time + self.duration


def build_playout_schedule(doc: HmlDocument) -> list[PlayoutEntry]:
    """Extract the E_i structures, ordered by (t_i, stream id).

    Every media element yields one entry; an AU_VI pair yields two
    entries sharing a sync group, the audio stream as master.
    """
    entries: list[PlayoutEntry] = []

    def _effective(duration: float | None, repeat: int) -> float | None:
        """REPEAT (§7 extension) loops the object back-to-back: the
        playout entry simply spans ``repeat`` times the duration."""
        if duration is None:
            return None
        return duration * max(1, repeat)

    for e in doc.media_elements():
        if isinstance(e, ImageElement):
            entries.append(
                PlayoutEntry(
                    stream_id=e.element_id, media_type=MediaType.IMAGE,
                    source=e.source, start_time=e.startime,
                    duration=_effective(e.duration, e.repeat), note=e.note,
                )
            )
        elif isinstance(e, AudioElement):
            entries.append(
                PlayoutEntry(
                    stream_id=e.element_id, media_type=MediaType.AUDIO,
                    source=e.source, start_time=e.startime,
                    duration=_effective(e.duration, e.repeat), note=e.note,
                )
            )
        elif isinstance(e, VideoElement):
            entries.append(
                PlayoutEntry(
                    stream_id=e.element_id, media_type=MediaType.VIDEO,
                    source=e.source, start_time=e.startime,
                    duration=_effective(e.duration, e.repeat), note=e.note,
                )
            )
        elif isinstance(e, AudioVideoElement):
            group = f"sync:{e.audio_id}+{e.video_id}"
            entries.append(
                PlayoutEntry(
                    stream_id=e.audio_id, media_type=MediaType.AUDIO,
                    source=e.audio_source, start_time=e.audio_startime,
                    duration=e.duration, sync_group=group,
                    is_sync_master=True, note=e.note,
                )
            )
            entries.append(
                PlayoutEntry(
                    stream_id=e.video_id, media_type=MediaType.VIDEO,
                    source=e.video_source, start_time=e.video_startime,
                    duration=e.duration, sync_group=group,
                    is_sync_master=False, note=e.note,
                )
            )
    entries.sort(key=lambda en: (en.start_time, en.stream_id))
    return entries


def scenario_duration(entries: list[PlayoutEntry]) -> float | None:
    """Total playout time; None if any entry is open-ended."""
    if not entries:
        return 0.0
    ends: list[float] = []
    for e in entries:
        if e.end_time is None:
            return None
        ends.append(e.end_time)
    return max(ends)


@dataclass(frozen=True, slots=True)
class BandwidthVerdict:
    """What a playout schedule charges, against a capacity: the peak of
    :func:`bandwidth_profile` at codec best grades, and with every
    gradable stream at its ladder's bottom rung (the negotiation floor).
    """

    peak_bps: float
    peak_time_s: float
    degraded_peak_bps: float
    capacity_bps: float | None

    @property
    def feasible(self) -> bool:
        return (self.capacity_bps is None
                or self.peak_bps <= self.capacity_bps)

    @property
    def feasible_degraded(self) -> bool:
        return (self.capacity_bps is None
                or self.degraded_peak_bps <= self.capacity_bps)

    def finding(self) -> str:
        """Why the peak does not fit ("" when it does): the text of the
        lint diagnostic and of a ``request-reject``."""
        if self.feasible:
            return ""
        where = (f"peak {self.peak_bps / 1e6:.2f} Mb/s at "
                 f"t={self.peak_time_s:g}s exceeds the declared "
                 f"capacity {self.capacity_bps / 1e6:.2f} Mb/s")
        if self.feasible_degraded:
            return (f"{where}; feasible only with quality degradation "
                    f"(bottom-rung peak {self.degraded_peak_bps / 1e6:.2f} "
                    "Mb/s) — admission would negotiate the session down")
        return (f"{where}; infeasible even with every stream degraded to "
                f"its bottom rung ({self.degraded_peak_bps / 1e6:.2f} "
                "Mb/s) — admission would reject this scenario")


def bandwidth_profile(
    schedule: list[PlayoutEntry],
    codecs: CodecRegistry | None = None,
    degraded: bool = False,
) -> list[tuple[float, float]]:
    """Concurrent-bandwidth step function over the playout schedule.

    Each continuous stream is charged its codec's best-grade rate (the
    bottom rung if ``degraded``) over ``[start, start+duration)``. An
    open-ended stream is charged from its start and never released: it
    may play forever.
    """
    registry = codecs if codecs is not None else default_registry()
    deltas: list[tuple[float, float]] = []
    for entry in schedule:
        if entry.media_type.is_continuous:
            codec = registry.default_for(entry.media_type)
            rate = float((codec.worst if degraded
                          else codec.best).bitrate_bps)
            deltas.append((entry.start_time, rate))
            if entry.duration is not None:
                deltas.append((entry.start_time + entry.duration, -rate))
    deltas.sort()
    steps: list[tuple[float, float]] = []
    current = 0.0
    for t, delta in deltas:
        current += delta
        if steps and steps[-1][0] == t:
            steps[-1] = (t, current)
        else:
            steps.append((t, current))
    return steps


def check_bandwidth(
    schedule: list[PlayoutEntry],
    capacity_bps: float | None,
    codecs: CodecRegistry | None = None,
) -> BandwidthVerdict:
    """The schedule's best-grade and bottom-rung peaks against
    ``capacity_bps`` (``None``: always feasible)."""
    registry = codecs if codecs is not None else default_registry()
    peak_t, peak = max(bandwidth_profile(schedule, registry),
                       key=itemgetter(1), default=(0.0, 0.0))
    degraded = bandwidth_profile(schedule, registry, degraded=True)
    return BandwidthVerdict(
        peak_bps=peak, peak_time_s=peak_t,
        degraded_peak_bps=max(map(itemgetter(1), degraded), default=0.0),
        capacity_bps=capacity_bps,
    )


def ascii_timeline(
    entries: list[PlayoutEntry], width: int = 60
) -> str:
    """Render the playout schedule as a Figure 2-style timeline.

    One row per stream; ``=`` marks the interval [t_i, t_i+d_i].
    Open-ended entries extend to the scenario edge and end with ``>``.
    """
    if not entries:
        return "(empty scenario)"
    known_ends = [e.end_time for e in entries if e.end_time is not None]
    horizon = max(known_ends) if known_ends else max(
        e.start_time for e in entries
    ) + 1.0
    horizon = max(horizon, 1e-9)
    label_w = max(len(e.stream_id) for e in entries) + 2
    lines = []
    for e in entries:
        start_col = int(round(e.start_time / horizon * (width - 1)))
        if e.end_time is None:
            end_col = width - 1
            bar = "=" * max(1, end_col - start_col) + ">"
        else:
            end_col = int(round(e.end_time / horizon * (width - 1)))
            bar = "=" * max(1, end_col - start_col)
        row = " " * start_col + bar
        tag = " [sync]" if e.sync_group else ""
        lines.append(f"{e.stream_id:<{label_w}}|{row:<{width}}|{tag}")
    scale = f"{'':<{label_w}} 0{'':<{width - 8}}{horizon:>6.1f}s"
    return "\n".join(lines + [scale])
