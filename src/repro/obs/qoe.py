"""Per-session Quality-of-Experience scoring.

One :class:`SessionQoE` per session: startup delay, stall
count/duration, skew violations, grade-degradation time, frame
delivery accounting, end-to-end latency percentiles (log-bucketed
histograms) and a composite 0–100 score. :func:`score` is the one
scorer and takes plain numbers. A run feeds it what the session's
endpoints already hold (the orchestrator does, traced or not — no
recorder is needed for a result); :func:`score_session` feeds it the
same numbers recovered from a trace through the frame spans of
:mod:`repro.obs.lifecycle`, which is the only way to score a JSONL
file (``repro trace``) and the reference the endpoint numbers are
tested against.

The score is a diagnostic ranking, not a perceptual model: it starts
at 100 and subtracts bounded penalties for startup delay, stalls,
undelivered frames, skew corrections and time spent at a degraded
grade, so a clean run always ranks strictly above an impaired one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.obs.metrics import Histogram, log_buckets

if TYPE_CHECKING:
    from repro.obs.lifecycle import FrameSpan
    from repro.obs.tracer import TraceEvent

__all__ = ["SessionQoE", "score", "score_session", "score_sessions",
           "qoe_summary", "population_qoe"]

#: latency histogram bounds shared by all QoE scorers
LATENCY_BOUNDS = log_buckets(1e-4, 100.0, per_decade=9)

#: two gap events closer than this belong to the same stall
STALL_MERGE_S = 0.5


@dataclass(slots=True)
class SessionQoE:
    """One session's derived quality-of-experience summary."""

    session: str
    duration_s: float = 0.0
    startup_s: float = 0.0
    stall_count: int = 0
    stall_time_s: float = 0.0
    skew_violations: int = 0
    degraded_time_s: float = 0.0
    frames_sent: int = 0
    frames_played: int = 0
    frames_dropped: int = 0
    frames_lost: int = 0
    #: end-to-end (send -> playout) latency distribution, played frames
    latency: dict[str, float] = field(default_factory=dict)
    score: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        if self.frames_sent == 0:
            return 1.0
        return self.frames_played / self.frames_sent

    def to_dict(self) -> dict[str, object]:
        return {
            "session": self.session,
            "score": self.score,
            "duration_s": self.duration_s,
            "startup_s": self.startup_s,
            "stall_count": self.stall_count,
            "stall_time_s": self.stall_time_s,
            "skew_violations": self.skew_violations,
            "degraded_time_s": self.degraded_time_s,
            "frames_sent": self.frames_sent,
            "frames_played": self.frames_played,
            "frames_dropped": self.frames_dropped,
            "frames_lost": self.frames_lost,
            "delivery_ratio": self.delivery_ratio,
            "latency": dict(self.latency),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any],
                  session: str = "") -> "SessionQoE":
        """Inverse of :meth:`to_dict` (``delivery_ratio`` is derived);
        ``session`` names a document that does not name itself."""
        known = {f.name for f in fields(cls)}
        qoe = cls(**{"session": session,
                     **{k: v for k, v in doc.items() if k in known}})
        qoe.latency = dict(qoe.latency)
        return qoe


def _stalls(gap_times: Sequence[float]) -> tuple[int, float]:
    """Merge per-tick gap events into stalls: (count, total seconds).

    Consecutive gaps one frame interval apart are one stall; the
    stall's duration spans its first to its last gap plus one typical
    spacing (a lone gap still stalls for about one frame time).
    """
    if not gap_times:
        return 0, 0.0
    gap_times = sorted(gap_times)
    deltas = [b - a for a, b in zip(gap_times, gap_times[1:]) if b > a]
    spacing = min(deltas) if deltas else STALL_MERGE_S / 2.0
    merge = max(STALL_MERGE_S, 2.0 * spacing)
    count = 1
    total = 0.0
    run_start = gap_times[0]
    prev = gap_times[0]
    for t in gap_times[1:]:
        if t - prev > merge:
            total += (prev - run_start) + spacing
            count += 1
            run_start = t
        prev = t
    total += (prev - run_start) + spacing
    return count, total


def _degraded_time(grade_changes: Sequence[tuple[float, int, int]],
                   end_s: float) -> float:
    """Seconds spent above (worse than) the session's initial grade.

    ``grade_changes`` is ``(time, old grade, new grade)`` per grading
    decision, in the order they were taken.
    """
    if not grade_changes:
        return 0.0
    baseline = grade_changes[0][1]
    degraded_since: float | None = None
    total = 0.0
    for time, _old, grade in sorted(grade_changes, key=itemgetter(0)):
        if grade > baseline and degraded_since is None:
            degraded_since = time
        elif grade <= baseline and degraded_since is not None:
            total += time - degraded_since
            degraded_since = None
    if degraded_since is not None:
        total += max(0.0, end_s - degraded_since)
    return total


def _composite_score(q: SessionQoE) -> float:
    """Bounded-penalty composite in [0, 100] (higher is better)."""
    duration = max(q.duration_s, 1e-9)
    undelivered = 1.0 - q.delivery_ratio
    penalty = 0.0
    penalty += min(15.0, 4.0 * q.startup_s)
    penalty += min(15.0, 3.0 * q.stall_count)
    penalty += min(20.0, 100.0 * q.stall_time_s / duration)
    penalty += min(40.0, 100.0 * undelivered)
    penalty += min(5.0, 0.5 * q.skew_violations)
    penalty += min(15.0, 50.0 * q.degraded_time_s / duration)
    return max(0.0, 100.0 - penalty)


def score(
    session: str,
    *,
    begin_s: float,
    end_s: float,
    first_play_s: float | None = None,
    gap_times: Sequence[float] = (),
    skew_violations: int = 0,
    grade_changes: Sequence[tuple[float, int, int]] = (),
    frames_sent: int = 0,
    frames_played: int = 0,
    frames_dropped: int = 0,
    frames_lost: int = 0,
    latencies: Iterable[float] = (),
) -> SessionQoE:
    """One session's QoE from its numbers, wherever they were taken.

    ``latencies`` are the send -> playout seconds of the played frames
    in the order the frames were first sent (the histogram's ``sum``
    adds in that order); the cost is a fixed number of calls, whatever
    the session's length.
    """
    qoe = SessionQoE(
        session=session, skew_violations=skew_violations,
        frames_sent=frames_sent, frames_played=frames_played,
        frames_dropped=frames_dropped, frames_lost=frames_lost)
    qoe.duration_s = max(0.0, end_s - begin_s)
    if first_play_s is not None:
        qoe.startup_s = max(0.0, first_play_s - begin_s)
    qoe.stall_count, qoe.stall_time_s = _stalls(gap_times)
    qoe.degraded_time_s = _degraded_time(grade_changes, end_s)
    latency = Histogram(bounds=LATENCY_BOUNDS)
    latency.observe_many([v for v in latencies if v >= 0])
    qoe.latency = latency.summary()
    qoe.score = _composite_score(qoe)
    return qoe


def score_session(
    events: list[TraceEvent],
    session: str,
    spans: dict[tuple[str, str, int], FrameSpan] | None = None,
) -> SessionQoE:
    """Score one session from a trace (and optionally pre-built spans)."""
    if spans is None:
        from repro.obs.lifecycle import correlate_frames

        spans = correlate_frames(events, session=session)

    begin_s: float | None = None
    end_s: float | None = None
    first_play_s: float | None = None
    skew_violations = 0
    gap_times: list[float] = []
    grade_events: list[TraceEvent] = []
    for e in events:
        if e.session != session:
            continue
        if e.kind == "session":
            if e.phase == "B":
                begin_s = e.time if begin_s is None else begin_s
            elif e.phase == "E":
                end_s = e.time
        elif e.kind in ("playout.frame", "playout.start"):
            if first_play_s is None or e.time < first_play_s:
                first_play_s = e.time
        elif e.kind == "playout.gap":
            gap_times.append(e.time)
        elif e.kind == "skew.correct":
            skew_violations += 1
        elif e.kind == "qos.grade":
            grade_events.append(e)

    if begin_s is None:
        begin_s = min((e.time for e in events if e.session == session),
                      default=0.0)
    if end_s is None:
        end_s = max((e.time for e in events if e.session == session),
                    default=begin_s)
    baseline = grade_events[0].args.get("old", 0) if grade_events else 0

    terminals = {"played": 0, "dropped": 0, "lost": 0, "pending": 0}
    latencies: list[float] = []
    for span in spans.values():
        if span.session != session:
            continue
        terminals[span.terminal] += 1
        total = span.total_s
        if total is not None:
            latencies.append(total)
    return score(
        session, begin_s=begin_s, end_s=end_s, first_play_s=first_play_s,
        gap_times=gap_times, skew_violations=skew_violations,
        grade_changes=[(e.time, e.args.get("old", 0),
                        e.args.get("new", baseline)) for e in grade_events],
        frames_sent=sum(terminals.values()),
        frames_played=terminals["played"],
        frames_dropped=terminals["dropped"], frames_lost=terminals["lost"],
        latencies=latencies)


def score_sessions(
    events: list[TraceEvent],
) -> dict[str, SessionQoE]:
    """Score every session that opened a ``session`` span in the trace."""
    from repro.obs.lifecycle import correlate_frames

    sessions = [e.name for e in events
                if e.kind == "session" and e.phase == "B"]
    spans = correlate_frames(events)
    out: dict[str, SessionQoE] = {}
    for sess in sessions:
        sess_spans = {k: s for k, s in spans.items() if s.session == sess}
        out[sess] = score_session(events, sess, spans=sess_spans)
    return out


def qoe_summary(qoes: list[SessionQoE] | dict[str, SessionQoE]) -> dict:
    """Population rollup: score/startup/latency percentiles.

    Streaming histograms keep this O(buckets) regardless of
    population size; the result is JSON-serializable and rides on
    :class:`~repro.core.orchestrator.PopulationResult`.
    """
    values = list(qoes.values()) if isinstance(qoes, dict) else list(qoes)
    score = Histogram(bounds=tuple(range(1, 101)) + (float("inf"),))
    startup = Histogram(bounds=log_buckets(1e-3, 100.0))
    latency = Histogram(bounds=LATENCY_BOUNDS)
    totals = {"stall_count": 0, "skew_violations": 0, "frames_sent": 0,
              "frames_played": 0, "frames_dropped": 0, "frames_lost": 0}
    for q in values:
        score.observe(q.score)
        startup.observe(q.startup_s)
        if q.latency.get("count"):
            # fold the per-session p50 into the population view
            latency.observe(q.latency.get("p50", 0.0))
        for key in totals:
            totals[key] += getattr(q, key)
    return {
        "sessions": len(values),
        "score": score.summary(),
        "startup_s": startup.summary(),
        "frame_latency_p50_s": latency.summary(),
        **totals,
    }


def population_qoe(qoe_docs: Iterable[Mapping[str, Any]]) -> dict:
    """:func:`qoe_summary` over sessions' QoE documents, skipping a
    session without one; empty when none carries one. A population run
    and a merged sharded run report through this one rollup."""
    qoes = [SessionQoE.from_dict(doc) for doc in qoe_docs if doc]
    return qoe_summary(qoes) if qoes else {}
