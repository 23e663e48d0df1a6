"""Media-server failure detection and stream failover.

A :class:`MediaWatchdog` guards one multimedia server's media servers
(primaries and replicas). Detection is event-driven with a modelled
latency: a crash schedules a detection ``DETECT_DELAY_S`` later —
standing in for the heartbeat round-trips a real monitor would need —
after which every interrupted stream is failed over to the first
healthy replica (a stream with none stays lost).

Failover resumes each stream *realtime-aligned*: the replacement
source fast-forwards past the outage window, so the client sees a
bounded burst of playout gaps instead of a permanently late stream.
The replacement starts at the grade the stream had and is
re-registered with the session's Server QoS Manager so the normal
grading path keeps working after the switch.
"""

from __future__ import annotations

from repro.server.media_server import MediaServer, StreamSnapshot
from repro.server.multimedia_server import MultimediaServer

__all__ = ["MediaWatchdog"]

#: a crash's modelled detection latency
DETECT_DELAY_S = 0.5


class MediaWatchdog:
    """Detects media-server crashes and fails streams over."""

    def __init__(self, server: MultimediaServer) -> None:
        self.server = server
        self.sim = server.sim
        self.detections = 0
        self.streams_failed_over = 0
        self.streams_lost = 0
        #: sessions that had at least one stream restored
        self.sessions_saved: set[str] = set()
        #: raw per-event latencies, kept unconditionally (bounded by
        #: the fault count) so service reports work on untraced runs
        self.detect_times: list[float] = []
        self.recover_times: list[float] = []
        for ms in server.all_media_servers():
            self.attach(ms)

    def attach(self, ms: MediaServer) -> None:
        """Start guarding one media server (idempotent)."""
        ms.on_crash = self._on_crash

    # -- crash hook ----------------------------------------------------------
    def _on_crash(self, ms: MediaServer) -> None:
        self.sim.call_later(DETECT_DELAY_S, self._detect, ms)

    def _detect(self, ms: MediaServer) -> None:
        self.detections += 1
        self.detect_times.append(DETECT_DELAY_S)
        if self.sim._tracing:
            self.sim._tracer.emit(self.sim.now, "recovery.detect", ms.name,
                                  node=ms.node_id,
                                  t_detect_s=DETECT_DELAY_S,
                                  streams=len(ms.wreckage))
        self._recover(ms)

    # -- failover ----------------------------------------------------------
    def _primary_name(self, ms: MediaServer) -> str:
        for name, primary in self.server.media_servers.items():
            if primary is ms:
                return name
        for name, standbys in self.server.replicas.items():
            if ms in standbys:
                return name
        return ms.name

    def _recover(self, ms: MediaServer) -> None:
        primary = self._primary_name(ms)
        wreck = list(ms.wreckage)
        ms.wreckage.clear()
        by_session: dict[str, list[StreamSnapshot]] = {}
        for snap in wreck:
            by_session.setdefault(snap.origin.session_id, []).append(snap)
        for session_id in sorted(by_session):
            snaps = by_session[session_id]
            if session_id not in self.server.sessions:
                # Session tore down during the outage; nothing to save.
                continue
            handler = self.server.session_handlers.get(session_id)
            if handler is not None:
                handler.notify_stream_fault(
                    [s.origin.stream_id for s in snaps], ms.name
                )
            for snap in snaps:
                # Replica-aware: prefer the client's regional edge,
                # falling back to the origin when that edge is down.
                target = self.server.healthy_media_server(
                    primary, client_node=snap.origin.client_node
                )
                if target is None:
                    if self.sim._tracing:
                        self.sim._tracer.emit(
                            self.sim.now, "recovery.failed",
                            snap.origin.stream_id, session=session_id,
                            reason="no-healthy-server", server=primary)
                    continue
                self._failover(snap, target, handler)

    def _failover(self, snap: StreamSnapshot, target: MediaServer,
                  handler) -> None:
        origin = snap.origin
        now = self.sim.now
        if origin.key in target.streams:
            return  # already restored (duplicate detection)
        # Skip the outage: resume where the stream *would* be now, so
        # only the missed window turns into gaps.
        resume_pos = snap.position_s + (now - snap.crashed_at)
        if resume_pos >= origin.duration_s - 1e-9:
            # The outage swallowed the tail; nothing left to transmit.
            return
        try:
            _handler, converter = target.start_stream(
                origin.session_id, origin.object_path,
                stream_id=origin.stream_id,
                client_node=origin.client_node,
                client_port=origin.client_port,
                duration_s=origin.duration_s,
                initial_grade=snap.grade,
                floor_grade=origin.floor_grade,
                allow_suspend=origin.allow_suspend,
                ssrc=origin.ssrc,
                start_offset_media_s=resume_pos,
                first_seq=snap.next_seq,
            )
        except (RuntimeError, ValueError, KeyError) as exc:
            self.streams_lost += 1
            if self.sim._tracing:
                self.sim._tracer.emit(self.sim.now, "recovery.failed",
                                      origin.stream_id,
                                      session=origin.session_id,
                                      reason=str(exc), server=target.name)
            return
        served = self.server.sessions.get(origin.session_id)
        if served is not None:
            media_type = target.store.codec_for(origin.object_path).media_type
            served.qos_manager.unregister_stream(origin.stream_id)
            served.qos_manager.register_stream(
                origin.stream_id, media_type, converter
            )
        t_recover = now - snap.crashed_at
        self.streams_failed_over += 1
        self.recover_times.append(t_recover)
        self.sessions_saved.add(origin.session_id)
        if self.sim._tracing:
            self.sim._tracer.emit(
                self.sim.now, "recovery.stream", origin.stream_id,
                session=origin.session_id, node=target.node_id,
                to=target.name, t_recover_s=t_recover,
                position_s=resume_pos, grade=snap.grade)
        if handler is not None:
            handler.notify_stream_recovered(origin.stream_id, target.name,
                                            t_recover)
