"""Server-side delivery batching: one egress flow per hot object.

When many viewers request the same hot scenario at once, per-session
unicast sends the identical frame sequence once per viewer over the
origin's egress link. The :class:`SharedFlowManager` merges those
requests: the first request opens a *batch* that stays open for a
short window; every request for the same (media server, object,
fan-out point) joins it; then exactly one master flow starts. The
master pulls frames from a single seeded
:class:`~repro.media.traces.FrameSource` at the origin and ships each
frame **once** as a carrier packet to the fan-out router (the
viewers' POP, or the core router), where a per-subscriber
:class:`~repro.rtp.session.RtpSender` packetizes it onward. Each
viewer keeps its own SSRC, RTP sequence space and session
attribution, so the client-side receivers, QoE scoring and loss
accounting are byte-for-byte oblivious to the sharing.

Modelling notes / limitations:

* The batch window delays the batch's streams by at most
  ``batch_window_s``; keep it below the flow lead so the wait lands
  in the client's prefill buffer, not in playout gaps.
* The quality converter is shared: a grading decision by any
  subscriber's Server QoS Manager regrades the whole flow (shared
  delivery means shared quality, as in any broadcast scheme).
* Per-session pause gates do not stop a shared flow — a paused viewer
  simply discards what keeps arriving (documented trade-off).
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.des import Event, Simulator
from repro.media.types import Frame
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.rtp.session import RtpSender
from repro.server.media_server import MediaServer
from repro.server.quality_converter import MediaStreamQualityConverter

__all__ = ["SharedFlowManager", "SharedFlow", "FlowSubscriber"]

#: carrier/fan-out transmission ports, above every allocator range so
#: they never collide with control/rtcp/media allocations
_relay_ports = itertools.count(80_000)

#: per-packet overhead of the origin→POP carrier encapsulation
CARRIER_HEADER_BYTES = 12


class FlowSubscriber:
    """One viewer's leg of a shared flow."""

    def __init__(
        self,
        session_id: str,
        stream_id: str,
        client_node: str,
        client_port: int,
        ssrc: int,
    ) -> None:
        self.session_id = session_id
        self.stream_id = stream_id
        self.client_node = client_node
        self.client_port = client_port
        self.ssrc = ssrc
        #: created when the flow starts (fan-out node side)
        self.sender: RtpSender | None = None

    def close(self) -> None:
        if self.sender is not None:
            self.sender.close()
            self.sender = None


class SharedFlow:
    """One batched delivery: a master source fanned out at a router."""

    def __init__(
        self,
        manager: "SharedFlowManager",
        ms: MediaServer,
        object_path: str,
        stream_id: str,
        fanout_node: str,
        duration_s: float,
        send_offset_s: float,
        initial_grade: int,
        floor_grade: int,
        allow_suspend: bool,
    ) -> None:
        self.manager = manager
        self.sim: Simulator = manager.sim
        self.network: Network = manager.network
        self.ms = ms
        self.object_path = object_path
        self.stream_id = stream_id
        self.fanout_node = fanout_node
        self.duration_s = duration_s
        self.send_offset_s = send_offset_s
        self.subscribers: list[FlowSubscriber] = []
        self.started = False
        self.frames_sent = 0
        self.carrier_packets = 0
        self.finished: Event = self.sim.event()
        source = ms.store.frame_source(object_path,
                                       grade_index=initial_grade)
        source.stream_id = stream_id
        self.converter = MediaStreamQualityConverter(
            source, floor_grade=floor_grade, allow_suspend=allow_suspend
        )
        self.source = source
        self._relay_port = next(_relay_ports)
        self._process = None

    @property
    def key(self) -> tuple:
        return (self.ms.name, self.object_path, self.fanout_node,
                self.send_offset_s, self.duration_s)

    def add_subscriber(self, sub: FlowSubscriber) -> None:
        if self.started:
            raise RuntimeError(
                f"shared flow {self.stream_id!r} already started"
            )
        self.subscribers.append(sub)

    # -- delivery ----------------------------------------------------------
    def start(self) -> None:
        """Close the batch and begin the master transmission."""
        if self.started or not self.subscribers:
            return
        self.started = True
        self.network.node(self.fanout_node).bind(
            self._relay_port, self._fan_out
        )
        for sub in self.subscribers:
            codec = self.ms.store.codec_for(self.object_path)
            sub.sender = RtpSender(
                self.network, self.fanout_node, next(_relay_ports),
                sub.client_node, sub.client_port,
                ssrc=sub.ssrc, payload_type=codec.payload_type,
                clock_rate=codec.clock_rate, stream_id=sub.stream_id,
                session=sub.session_id,
            )
        self._process = self.sim.process(
            self._run(), name=f"sflow:{self.stream_id}:{self.fanout_node}"
        )
        if self.sim._tracing:
            self.sim._tracer.emit(
                self.sim.now, "sflow.start", self.stream_id,
                node=self.ms.node_id, fanout=self.fanout_node,
                subscribers=len(self.subscribers),
            )
            metrics = getattr(self.sim._tracer, "metrics", None)
            if metrics is not None:
                metrics.histogram("shared_flow_batch_size").observe(
                    len(self.subscribers)
                )

    def _run(self):
        sim = self.sim
        if self.send_offset_s > 0:
            yield sim.timeout(self.send_offset_s)
        while self.source.media_time_s < self.duration_s - 1e-9:
            interval = self.source.frame_interval_s
            frame = self.source.next_frame()
            if frame is not None:
                self._send_carrier(frame)
                self.frames_sent += 1
            yield sim.timeout(interval)
        if sim._tracing:
            sim._tracer.emit(
                sim.now, "sflow.finish", self.stream_id,
                node=self.ms.node_id, fanout=self.fanout_node,
                frames=self.frames_sent,
                carrier_packets=self.carrier_packets,
            )
        self.finished.succeed(self.frames_sent)
        self._teardown()

    def _send_carrier(self, frame: Frame) -> None:
        """Ship one frame origin → fan-out router, exactly once."""
        if self.ms.node_id == self.fanout_node:
            # Degenerate placement (media server on the fan-out node):
            # skip the network leg and fan out directly.
            self._fan_out_frame(frame)
            return
        pkt = Packet(
            src=self.ms.node_id,
            dst=self.fanout_node,
            size_bytes=frame.size_bytes + CARRIER_HEADER_BYTES,
            protocol="SFLOW",
            flow_id=f"sflow:{self.stream_id}",
            dst_port=self._relay_port,
            payload=frame,
            seq=frame.seq,
            frame_seq=frame.seq,
        )
        self.carrier_packets += 1
        if self.sim._tracing_detail:
            self.sim._tracer.emit(
                self.sim.now, "sflow.carrier", self.stream_id,
                node=self.ms.node_id, seq=frame.seq,
                bytes=pkt.size_bytes,
            )
        self.network.send(pkt)

    def _fan_out(self, pkt: Packet) -> None:
        frame = pkt.payload
        if isinstance(frame, Frame):
            self._fan_out_frame(frame)

    def _fan_out_frame(self, frame: Frame) -> None:
        for sub in self.subscribers:
            if sub.sender is not None:
                sub.sender.send_frame(frame)

    # -- teardown ----------------------------------------------------------
    def _teardown(self) -> None:
        self.network.node(self.fanout_node).unbind(self._relay_port)
        for sub in self.subscribers:
            sub.close()
        self.manager._flow_done(self)

    def drop_session(self, session_id: str) -> None:
        """Detach one viewer; the last one stops the master."""
        keep = [s for s in self.subscribers if s.session_id != session_id]
        if len(keep) == len(self.subscribers):
            return
        for sub in self.subscribers:
            if sub.session_id == session_id:
                sub.close()
        self.subscribers = keep
        if self.started and not keep and self._process is not None:
            if self._process.is_alive:
                self._process.interrupt("no subscribers left")
            self.network.node(self.fanout_node).unbind(self._relay_port)
            self.manager._flow_done(self)


class SharedFlowManager:
    """Batches same-object requests into shared egress flows."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        fanout_node_for: Callable[[str], str],
        batch_window_s: float = 0.25,
    ) -> None:
        if batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        self.sim = sim
        self.network = network
        self.fanout_node_for = fanout_node_for
        self.batch_window_s = batch_window_s
        #: flow key -> batch still accepting joiners
        self._open: dict[tuple, SharedFlow] = {}
        #: every flow currently transmitting
        self._active: list[SharedFlow] = []
        self.flows_started = 0
        self.joins = 0

    def subscribe(
        self,
        ms: MediaServer,
        *,
        session_id: str,
        stream_id: str,
        object_path: str,
        client_node: str,
        client_port: int,
        duration_s: float,
        send_offset_s: float = 0.0,
        initial_grade: int = 0,
        floor_grade: int = 99,
        allow_suspend: bool = True,
        ssrc: int = 0,
    ) -> MediaStreamQualityConverter:
        """Join (or open) the batch for one hot object.

        Returns the flow's shared quality converter, which the caller
        registers with the session's Server QoS Manager exactly like a
        per-session stream's converter.
        """
        if ms.failed:
            raise RuntimeError(f"media server {ms.name!r} is down")
        fanout = self.fanout_node_for(client_node)
        key = (ms.name, object_path, fanout, send_offset_s, duration_s)
        flow = self._open.get(key)
        opened = flow is None
        if flow is None:
            flow = SharedFlow(
                self, ms, object_path, stream_id, fanout,
                duration_s, send_offset_s, initial_grade, floor_grade,
                allow_suspend,
            )
            self._open[key] = flow
            self._active.append(flow)
            self.flows_started += 1
            self.sim.call_later(self.batch_window_s,
                                self._close_batch, key)
        flow.add_subscriber(FlowSubscriber(
            session_id, stream_id, client_node, client_port, ssrc
        ))
        self.joins += 1
        if self.sim._tracing:
            self.sim._tracer.emit(
                self.sim.now, "sflow.open" if opened else "sflow.join",
                stream_id, session=session_id, node=fanout,
                media=ms.name, path=object_path,
            )
            metrics = getattr(self.sim._tracer, "metrics", None)
            if metrics is not None:
                metrics.counter("shared_flow_joins", media=ms.name).inc()
        return flow.converter

    def _close_batch(self, key: tuple) -> None:
        flow = self._open.pop(key, None)
        if flow is not None:
            flow.start()

    def _flow_done(self, flow: SharedFlow) -> None:
        if flow in self._active:
            self._active.remove(flow)

    def stop_session(self, session_id: str) -> None:
        """Drop a departing session from every flow it rides."""
        for flow in list(self._active):
            flow.drop_session(session_id)

    def active_flows(self) -> list[SharedFlow]:
        return list(self._active)
