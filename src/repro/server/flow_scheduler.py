"""The flow scheduler (§4).

"At the server's site, the flow scheduler uses the retrieved from the
multimedia database presentation scenario to compute a *flow
scenario* for each participating media stream. This flow scenario
specifies the sending start time instances of the corresponding media
streams, as well as other transmission properties (e.g. transmission
rates). Furthermore, it activates the appropriate media servers."

Each continuous stream is sent ahead of its playout deadline by a
*lead* matched to the client's media time window (so the buffer
prefills during the intentional startup delay); discrete objects are
fetched immediately, ordered by their presentation times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.media.encodings import CodecRegistry
from repro.media.types import MediaType
from repro.model.scenario import PresentationScenario, StreamSpec
from repro.server.accounts import QoSPreferences

__all__ = ["FlowSpec", "FlowScenario", "FlowScheduler", "FLOW_LEAD_S"]

#: how far ahead of its playout deadline a stream starts sending, and
#: how long the client delays presentation start to match
FLOW_LEAD_S = 1.0


@dataclass(frozen=True, slots=True)
class FlowSpec:
    """Transmission plan for one media stream."""

    stream_id: str
    media_type: MediaType
    server: str
    path: str
    send_offset_s: float  # when to start sending, from session start
    duration_s: float | None
    initial_grade: int

    @property
    def is_continuous(self) -> bool:
        return self.media_type.is_continuous


@dataclass(slots=True)
class FlowScenario:
    """The full per-session transmission plan."""

    flows: list[FlowSpec] = field(default_factory=list)
    lead_s: float = 0.0

    def continuous(self) -> list[FlowSpec]:
        return [f for f in self.flows if f.is_continuous]

    def discrete(self) -> list[FlowSpec]:
        return [f for f in self.flows if not f.is_continuous]

    def by_server(self) -> dict[str, list[FlowSpec]]:
        out: dict[str, list[FlowSpec]] = {}
        for f in self.flows:
            out.setdefault(f.server, []).append(f)
        return out


class FlowScheduler:
    """Computes flow scenarios from presentation scenarios."""

    def __init__(self, codecs: CodecRegistry) -> None:
        self.codecs = codecs

    @staticmethod
    def grade_for_ratio(codec, ratio: float) -> int:
        """Deepest grade whose rate fits ``ratio`` of full quality.

        Used to translate a negotiated bandwidth grant into the
        initial quality grade of the session's streams.
        """
        if ratio >= 1.0:
            return 0
        target = ratio * codec.best.bitrate_bps
        for grade in codec.ladder:
            if grade.bitrate_bps <= target:
                return grade.index
        return codec.ladder[-1].index

    def _grade_for(self, spec: StreamSpec, prefs: QoSPreferences | None,
                   initial_grade: int) -> int:
        if prefs is None:
            return initial_grade
        # Never start deeper than the user's floor.
        floor = (
            prefs.video_floor_grade
            if spec.media_type is MediaType.VIDEO
            else prefs.audio_floor_grade
        )
        return min(initial_grade, floor)

    def compute(
        self,
        scenario: PresentationScenario,
        lead_s: float = FLOW_LEAD_S,
        prefs: QoSPreferences | None = None,
        initial_grade: int = 0,
    ) -> FlowScenario:
        """Build the flow scenario.

        ``lead_s`` is how far ahead of each playout deadline the
        stream starts transmitting (matched to the client buffer's
        media time window; the client also delays presentation start
        by this much, so sending "t_i - lead" in client presentation
        time is "t_i" in session time).
        """
        if lead_s < 0:
            raise ValueError("lead_s must be >= 0")
        flows: list[FlowSpec] = []
        for spec in scenario.streams:
            entry = spec.entry
            if spec.is_continuous:
                grade_idx = self._grade_for(spec, prefs, initial_grade)
                # a media type with no codec, or a negative grade, fails
                # here rather than when the stream starts
                self.codecs.default_for(spec.media_type).grade(grade_idx)
                flows.append(
                    FlowSpec(
                        stream_id=spec.stream_id,
                        media_type=spec.media_type,
                        server=spec.locator.server,
                        path=spec.locator.path,
                        # The client delays presentation by its time
                        # window, so sending at t_i (session time) gives
                        # the buffer `lead` seconds of prefill.
                        send_offset_s=max(0.0, entry.start_time),
                        duration_s=entry.duration,
                        initial_grade=grade_idx,
                    )
                )
            else:
                flows.append(
                    FlowSpec(
                        stream_id=spec.stream_id,
                        media_type=spec.media_type,
                        server=spec.locator.server,
                        path=spec.locator.path,
                        send_offset_s=0.0,  # fetch discrete media eagerly
                        duration_s=entry.duration,
                        initial_grade=0,
                    )
                )
        # Discrete objects fetch in presentation order.
        flows.sort(key=lambda f: (f.send_offset_s, f.stream_id))
        return FlowScenario(flows=flows, lead_s=lead_s)
