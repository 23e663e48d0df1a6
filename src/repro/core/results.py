"""Structured results of an end-to-end session run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.client.metrics import PlayoutEventLog, SkewSeries

__all__ = ["StreamResult", "SessionResult"]


@dataclass(slots=True)
class StreamResult:
    """Per-stream outcome of one delivery."""

    stream_id: str
    media_type: str
    frames_played: int = 0
    gaps: int = 0
    duplicates: int = 0
    drops: int = 0
    gap_ratio: float = 0.0
    mean_grade: float = 0.0
    packets_received: int = 0
    packets_lost: int = 0
    mean_delay_s: float = 0.0
    jitter_s: float = 0.0
    buffer_overflow_drops: int = 0
    buffer_underflows: int = 0
    time_window_s: float = 0.0


@dataclass(slots=True)
class SessionResult:
    """Everything a benchmark needs from one session."""

    document: str
    completed: bool
    startup_latency_s: float | None
    charge: float
    streams: dict[str, StreamResult] = field(default_factory=dict)
    skew: dict[str, SkewSeries] = field(default_factory=dict)
    grading_decisions: list[Any] = field(default_factory=list)
    grade_trajectories: dict[str, list[tuple[float, int]]] = \
        field(default_factory=dict)
    protocol_bytes: dict[str, int] = field(default_factory=dict)
    log: PlayoutEventLog | None = None
    events: list[str] = field(default_factory=list)
    #: viewer host this session ran on ("" when it never got that far)
    client_node: str = ""
    #: packets delivered to the viewer host but addressed to an
    #: unbound port — nonzero means a misrouted or late flow
    rx_discarded: int = 0
    #: per-session QoE summary (score, startup, stalls, frame
    #: accounting, latency percentiles — see :mod:`repro.obs.qoe`),
    #: scored by ``run_workload`` from what the session's endpoints
    #: hold, traced or not; empty on a single scripted session
    qoe: dict[str, Any] = field(default_factory=dict)
    #: control RPC retransmissions the client had to issue (nonzero
    #: only under a fault plan with a RetryPolicy installed)
    retries: int = 0
    #: streams restored to this session by media-server failover
    recoveries: int = 0

    # -- aggregates ---------------------------------------------------------
    def total_gaps(self) -> int:
        return sum(s.gaps for s in self.streams.values())

    def total_gap_ratio(self) -> float:
        played = sum(s.frames_played for s in self.streams.values())
        gaps = self.total_gaps()
        total = played + gaps
        return 0.0 if total == 0 else gaps / total

    def loss_ratio(self) -> float:
        got = sum(s.packets_received for s in self.streams.values())
        lost = sum(s.packets_lost for s in self.streams.values())
        total = got + lost
        return 0.0 if total == 0 else lost / total

    def worst_skew_s(self) -> float:
        if not self.skew:
            return 0.0
        return max(s.max_abs_s for s in self.skew.values())

    def mean_video_grade(self) -> float:
        vids = [s.mean_grade for s in self.streams.values()
                if s.media_type == "video" and s.frames_played > 0]
        return sum(vids) / len(vids) if vids else 0.0

    def mean_audio_grade(self) -> float:
        auds = [s.mean_grade for s in self.streams.values()
                if s.media_type == "audio" and s.frames_played > 0]
        return sum(auds) / len(auds) if auds else 0.0

    # -- export ---------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable summary (drops the raw event log)."""
        return {
            "document": self.document,
            "completed": self.completed,
            "startup_latency_s": self.startup_latency_s,
            "charge": self.charge,
            "streams": {
                sid: {
                    "media_type": s.media_type,
                    "frames_played": s.frames_played,
                    "gaps": s.gaps,
                    "duplicates": s.duplicates,
                    "drops": s.drops,
                    "gap_ratio": s.gap_ratio,
                    "mean_grade": s.mean_grade,
                    "packets_received": s.packets_received,
                    "packets_lost": s.packets_lost,
                    "mean_delay_s": s.mean_delay_s,
                    "jitter_s": s.jitter_s,
                    "buffer_overflow_drops": s.buffer_overflow_drops,
                    "buffer_underflows": s.buffer_underflows,
                    "time_window_s": s.time_window_s,
                }
                for sid, s in sorted(self.streams.items())
            },
            "skew": {
                group: {
                    "max_abs_s": series.max_abs_s,
                    "mean_abs_s": series.mean_abs_s,
                    "fraction_out_of_sync": series.fraction_out_of_sync,
                    "samples": len(series),
                }
                for group, series in sorted(self.skew.items())
            },
            "grading": {
                "decisions": [
                    {"time": d.time, "action": d.action,
                     "target": d.target_stream,
                     "old": d.old_grade, "new": d.new_grade}
                    for d in self.grading_decisions
                ],
                "trajectories": {
                    sid: list(map(list, traj))
                    for sid, traj in sorted(self.grade_trajectories.items())
                },
            },
            "protocol_bytes": dict(self.protocol_bytes),
            "events": list(self.events),
            "client_node": self.client_node,
            "rx_discarded": self.rx_discarded,
            "qoe": dict(self.qoe),
            "retries": self.retries,
            "recoveries": self.recoveries,
        }
