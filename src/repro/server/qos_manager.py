"""The Server QoS Manager — the long-term recovery mechanism (§4).

Consumes the client's RTCP receiver reports and decides grading
actions, which the per-stream Media Stream Quality Converters apply:

* a *congested* report (loss or jitter over threshold) triggers a
  degrade, subject to a cooldown so one congestion epoch doesn't
  free-fall the ladder;
* sustained *clear* reports across the session (hysteresis) trigger
  an upgrade — "the service should gracefully upgrade the media
  quality, when the network's condition permits it";
* target selection follows the paper's ordering: "the service first
  applies the grading technique to the video stream, since audio or
  voice is considered to be more important to users". Ablation
  policies (audio-first, proportional/round-robin) are provided for
  experiment E8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.des import Simulator
from repro.media.types import MediaType
from repro.rtp.packets import RtcpReceiverReport
from repro.server.quality_converter import MediaStreamQualityConverter

__all__ = ["GradingPolicy", "GradingDecision", "ServerQoSManager"]

#: a report at or over either degrade threshold signals congestion; one
#: at or under both upgrade thresholds is clear (each degrade threshold
#: exceeds its upgrade one, so no report is both)
DEGRADE_LOSS = 0.05
UPGRADE_LOSS = 0.01
DEGRADE_JITTER_S = 0.050
UPGRADE_JITTER_S = 0.015
#: clear reports every stream of a session needs before an upgrade
HYSTERESIS_REPORTS = 3
UPGRADE_COOLDOWN_S = 4.0


@dataclass(frozen=True, slots=True)
class GradingPolicy:
    """Ordering and pace of the grading loop."""

    degrade_cooldown_s: float = 2.0
    order: str = "video-first"  # | "audio-first" | "proportional"
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.order not in ("video-first", "audio-first", "proportional"):
            raise ValueError(f"unknown grading order {self.order!r}")


@dataclass(frozen=True, slots=True)
class GradingDecision:
    time: float
    action: str  # "degrade" | "upgrade"
    target_stream: str
    old_grade: int
    new_grade: int
    reason: str


class ServerQoSManager:
    """Per-session grading controller at the sending side."""

    def __init__(self, sim: Simulator, policy: GradingPolicy | None = None,
                 session_id: str = "") -> None:
        self.sim = sim
        self.policy = policy if policy is not None else GradingPolicy()
        self.session_id = session_id
        self._converters: dict[str, MediaStreamQualityConverter] = {}
        self._media_types: dict[str, MediaType] = {}
        self._clear_streak: dict[str, int] = {}
        self._last_degrade_at = -float("inf")
        self._last_upgrade_at = -float("inf")
        self.decisions: list[GradingDecision] = []

    # -- registration ------------------------------------------------------
    def register_stream(
        self,
        stream_id: str,
        media_type: MediaType,
        converter: MediaStreamQualityConverter,
    ) -> None:
        if stream_id in self._converters:
            raise ValueError(f"stream {stream_id!r} already registered")
        self._converters[stream_id] = converter
        self._media_types[stream_id] = media_type
        self._clear_streak[stream_id] = 0

    def unregister_stream(self, stream_id: str) -> None:
        self._converters.pop(stream_id, None)
        self._media_types.pop(stream_id, None)
        self._clear_streak.pop(stream_id, None)

    def streams(self) -> list[str]:
        return sorted(self._converters)

    def converters(self) -> dict[str, MediaStreamQualityConverter]:
        """Live converter per registered stream (for result capture)."""
        return dict(self._converters)

    # -- report handling ------------------------------------------------------
    def on_report(self, report: RtcpReceiverReport) -> None:
        """Entry point wired to the RTCP sink."""
        if report.stream_id not in self._converters:
            return
        p = self.policy
        congested = (
            report.fraction_lost >= DEGRADE_LOSS
            or report.jitter_s >= DEGRADE_JITTER_S
        )
        clear = (
            report.fraction_lost <= UPGRADE_LOSS
            and report.jitter_s <= UPGRADE_JITTER_S
        )
        if congested:
            self._clear_streak[report.stream_id] = 0
            if p.enabled:
                self._try_degrade(report)
        elif clear:
            self._clear_streak[report.stream_id] += 1
            if p.enabled:
                self._try_upgrade(report)
        else:
            self._clear_streak[report.stream_id] = 0

    # -- target selection ------------------------------------------------------
    def _ordered(self, candidates: list[str], degrade: bool) -> list[str]:
        """Candidates ordered by the policy for the given direction."""
        p = self.policy

        def type_rank(sid: str) -> int:
            is_video = self._media_types[sid] is MediaType.VIDEO
            if p.order == "video-first":
                # Degrade video before audio; upgrade audio before video.
                if degrade:
                    return 0 if is_video else 1
                return 1 if is_video else 0
            if p.order == "audio-first":
                if degrade:
                    return 0 if not is_video else 1
                return 1 if not is_video else 0
            return 0  # proportional: type-agnostic

        def grade_rank(sid: str) -> int:
            g = self._converters[sid].grade_index
            # Degrade the least-degraded candidate first (spread pain);
            # upgrade the most-degraded first (restore worst first).
            return g if degrade else -g

        return sorted(candidates, key=lambda s: (type_rank(s), grade_rank(s), s))

    def _try_degrade(self, report: RtcpReceiverReport) -> None:
        now = self.sim.now
        if now - self._last_degrade_at < self.policy.degrade_cooldown_s:
            return
        candidates = [
            sid for sid, conv in self._converters.items() if conv.can_degrade
        ]
        if not candidates:
            return
        target = self._ordered(candidates, degrade=True)[0]
        conv = self._converters[target]
        old = conv.grade_index
        reason = (
            f"RR({report.stream_id}): loss={report.fraction_lost:.3f} "
            f"jitter={report.jitter_s * 1e3:.1f}ms"
        )
        if conv.degrade(now, reason=reason):
            self._last_degrade_at = now
            self.decisions.append(
                GradingDecision(now, "degrade", target,
                                old, conv.grade_index, reason)
            )
            if self.sim._tracing:
                self.sim._tracer.emit(
                    now, "qos.grade", target, session=self.session_id,
                    action="degrade", old=old, new=conv.grade_index,
                    trigger=report.stream_id, reason=reason,
                )

    def _try_upgrade(self, report: RtcpReceiverReport) -> None:
        now = self.sim.now
        p = self.policy
        if now - self._last_upgrade_at < UPGRADE_COOLDOWN_S:
            return
        if now - self._last_degrade_at < p.degrade_cooldown_s:
            return
        # All session streams must have a clear streak before upgrading.
        if any(
            self._clear_streak[sid] < HYSTERESIS_REPORTS
            for sid in self._converters
        ):
            return
        candidates = [
            sid for sid, conv in self._converters.items() if conv.can_upgrade
        ]
        if not candidates:
            return
        target = self._ordered(candidates, degrade=False)[0]
        conv = self._converters[target]
        old = conv.grade_index
        reason = f"clear x{HYSTERESIS_REPORTS} across session"
        if conv.upgrade(now, reason=reason):
            self._last_upgrade_at = now
            self.decisions.append(
                GradingDecision(now, "upgrade", target,
                                old, conv.grade_index, reason)
            )
            if self.sim._tracing:
                self.sim._tracer.emit(
                    now, "qos.grade", target, session=self.session_id,
                    action="upgrade", old=old, new=conv.grade_index,
                    trigger=report.stream_id, reason=reason,
                )
