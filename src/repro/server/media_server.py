"""Media servers: per-media-type storage and transmission (§2, §6.1).

"Media servers in which media objects are stored ... each one is
responsible for transmitting a certain media type through a parallel
connection which is established between the browser and the
corresponding media server. The media objects involved are
transmitted from the media servers towards the browser according to
the presentation scenario and the presentation constraints. The
transmission process of each media object is adjusted according to
the feedback reports."

Continuous objects stream over RTP from a :class:`StreamHandler`, the
one frame pump (whose grade the Quality Converter adjusts live);
:meth:`MediaServer.start_stream` is the only way onto the wire, for a
session's own stream, a failover resume and a leg of a shared flow
alike. Discrete objects ship over the reliable channel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.client.playout import PauseGate
from repro.des import Event, Simulator
from repro.media.store import MediaStore
from repro.media.types import Frame
from repro.net.channel import ReliableSender
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.rtp.session import RtpSender
from repro.server.quality_converter import MediaStreamQualityConverter

__all__ = ["StreamHandler", "StreamLeg", "StreamOrigin", "StreamSnapshot",
           "MediaServer"]

#: per-packet overhead of the origin→fan-out carrier encapsulation
CARRIER_HEADER_BYTES = 12


@dataclass(frozen=True, slots=True)
class StreamOrigin:
    """The start_stream arguments that created one viewer leg.

    Kept on the leg so a crash can snapshot everything needed to
    re-create the stream on a replica.
    """

    session_id: str
    stream_id: str
    object_path: str
    client_node: str
    client_port: int
    duration_s: float
    floor_grade: int
    allow_suspend: bool
    ssrc: int
    first_seq: int

    @property
    def key(self) -> tuple[str, str]:
        """What the leg is registered under in ``MediaServer.streams``."""
        return (self.session_id, self.stream_id)


@dataclass(frozen=True, slots=True)
class StreamSnapshot:
    """Where one viewer leg stood when its server crashed."""

    origin: StreamOrigin
    #: media position reached (absolute, scenario timeline)
    position_s: float
    #: next unwrapped RTP sequence number the replacement should use
    next_seq: int
    #: quality grade in force at the crash
    grade: int
    #: simulation time of the crash that produced this snapshot
    crashed_at: float


@dataclass(frozen=True, slots=True)
class StreamLeg:
    """One viewer's end of a pump: its own SSRC and RTP sequence space."""

    origin: StreamOrigin
    sender: RtpSender


class StreamHandler:
    """The frame pump: one continuous object to its viewer legs.

    One seeded :class:`~repro.media.traces.FrameSource` behind one
    quality converter, pulled once per frame interval by a chain of
    ``call_later`` ticks (no process: ``alive`` is the liveness flag);
    every frame goes to every :class:`StreamLeg`. The pump always pulls
    frames on its media server's node; delivery schemes differ only in
    where its legs are placed:

    * unicast — one leg on the media server's node;
    * shared flow — one leg per batched viewer on a fan-out node (the
      viewers' POP); each frame crosses origin → fan-out **once**, as an
      ``SFLOW`` carrier packet, and is packetized per leg there.

    Every viewer keeps its own SSRC, sequence space and session
    attribution, so receivers, QoE scoring and loss accounting cannot
    tell the placements apart. The converter is the pump's: a grading
    decision by any leg's Server QoS Manager regrades every leg. Every
    port (leg senders, carrier relay) comes from its node's allocator
    and goes back when the leg or the pump closes.
    """

    def __init__(
        self,
        ms: "MediaServer",
        origin: StreamOrigin,
        send_offset_s: float = 0.0,
        initial_grade: int = 0,
        start_offset_media_s: float = 0.0,
        leg_node: str | None = None,
        name: str = "",
    ) -> None:
        if origin.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        self.ms = ms
        self.sim = ms.sim
        self.network = ms.network
        self.duration_s = origin.duration_s
        self.send_offset_s = send_offset_s
        #: where frames are pulled (the media server's node), and where
        #: the legs packetize them (a fan-out node for a shared flow)
        self.node_id = ms.node_id
        self.leg_node = leg_node or self.node_id
        self._leg_host = ms.network.node(self.leg_node)
        self.name = name or f"stream:{origin.stream_id}"
        source = ms.store.frame_source(origin.object_path,
                                       grade_index=initial_grade)
        # Stream under the scenario's element id, not the storage path.
        source.stream_id = origin.stream_id
        if start_offset_media_s > 0:
            source.fast_forward(start_offset_media_s)
        self.source = source
        self.converter = MediaStreamQualityConverter(
            source, floor_grade=origin.floor_grade,
            allow_suspend=origin.allow_suspend,
        )
        #: (session_id, stream_id) -> leg, in joining (= fan-out) order
        self.legs: dict[tuple[str, str], StreamLeg] = {}
        #: live view of ``legs``: the per-frame loops make no call for it
        self._each_leg = self.legs.values()
        self.gate: PauseGate | None = None
        self.frames_sent = 0
        self.suspended_intervals = 0
        self.carrier_packets = 0
        #: succeeds once, with ``frames_sent``, when a started pump ends
        self.finished: Event = self.sim.event()
        #: started and not yet ended; the pending tick checks it
        self.alive = False
        self._relay_port: int | None = None

    # -- legs ----------------------------------------------------------------
    def add_leg(self, origin: StreamOrigin) -> None:
        """Attach one viewer and register the leg with the media server."""
        codec = self.source.codec
        port = self._leg_host.ports.allocate("media")
        self.legs[origin.key] = StreamLeg(origin, RtpSender(
            self.network, self.leg_node, port,
            origin.client_node, origin.client_port,
            ssrc=origin.ssrc, payload_type=codec.payload_type,
            stream_id=origin.stream_id,
            session=origin.session_id, first_seq=origin.first_seq,
        ))
        self.ms.streams[origin.key] = self

    def _close_leg(self, key: tuple[str, str]) -> None:
        leg = self.legs.pop(key)
        del self.ms.streams[key]
        leg.sender.close()
        self._leg_host.ports.release(leg.sender.socket.port)

    def drop_leg(self, key: tuple[str, str]) -> None:
        """Detach one viewer; the last one out stops the pump."""
        self._close_leg(key)
        if not self.legs:
            self.stop()

    # -- the frame clock -----------------------------------------------------
    def start(self) -> None:
        """Bind the carrier relay (legs on another node) and start pumping."""
        if len(self.legs) == 1:
            # A pause is one session's, so it can hold the pump only
            # when that session is the sole viewer; viewers of a pump
            # with more legs discard what keeps arriving while paused.
            (leg,) = self.legs.values()
            self.gate = self.ms.gate_for(leg.origin.session_id)
        if self.leg_node != self.node_id:
            self._relay_port = self._leg_host.ports.allocate("media")
            self._leg_host.bind(self._relay_port, self._on_carrier)
        self.alive = True
        # on its own heap entry: after whatever else happens this instant
        self.sim.call_later(0.0, self._begin)

    def _begin(self) -> None:
        if self.send_offset_s > 0:
            self.sim.call_later(self.send_offset_s, self._tick)
        else:
            self._tick()

    def _tick(self, resumed: Event | None = None) -> None:
        """Send the frame that is due and push the next tick. ``resumed``
        (the gate's event) marks a pause ending: the frame it held back
        goes out without a second look at the gate or the clock."""
        if not self.alive:
            return
        source = self.source
        if resumed is None:
            if source.media_time_s >= self.duration_s - 1e-9:
                self.stop()
                return
            gate = self.gate
            if gate is not None and gate.paused:
                gate.wait().callbacks.append(self._tick)
                return
        interval = source.frame_interval_s
        frame = source.next_frame()
        if frame is None:
            self.suspended_intervals += 1
        else:
            if self._relay_port is None:
                for leg in self._each_leg:
                    leg.sender.send_frame(frame)
            else:
                self._send_carrier(frame)
            self.frames_sent += 1
        self.sim.call_later(interval, self._tick)

    def _send_carrier(self, frame: Frame) -> None:
        """Ship one frame origin → fan-out node, exactly once."""
        pkt = Packet(
            src=self.node_id,
            dst=self.leg_node,
            size_bytes=frame.size_bytes + CARRIER_HEADER_BYTES,
            protocol="SFLOW",
            flow_id=f"sflow:{self.source.stream_id}",
            dst_port=self._relay_port,
            payload=frame,
            seq=frame.seq,
            frame_seq=frame.seq,
        )
        self.carrier_packets += 1
        if self.sim._tracing_detail:
            self.sim._tracer.emit(
                self.sim.now, "sflow.carrier", self.source.stream_id,
                node=self.node_id, seq=frame.seq, bytes=pkt.size_bytes,
            )
        self.network.send(pkt)

    def _on_carrier(self, pkt: Packet) -> None:
        """A carrier frame reached the fan-out node: one copy per leg."""
        for leg in self._each_leg:
            leg.sender.send_frame(pkt.payload)

    # -- teardown ------------------------------------------------------------
    def stop(self) -> None:
        """The one end of a pump: the object ran out, or a crash or the
        last viewer leaving cut it short. A started pump finishes, once."""
        if self.alive:
            self.alive = False
            self.finished.succeed(self.frames_sent)
        self._release()

    def _release(self) -> None:
        """Close every leg and the relay; their ports go back."""
        for key in list(self.legs):
            self._close_leg(key)
        if self._relay_port is not None:
            self._leg_host.unbind(self._relay_port)
            self._leg_host.ports.release(self._relay_port)
            self._relay_port = None


@dataclass(slots=True)
class DiscreteDelivery:
    """Bookkeeping for one reliable blob transfer."""

    element_id: str
    size_bytes: int
    done: Event


class MediaServer:
    """One media server: a store plus transmission machinery."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        node_id: str,
        store: MediaStore,
        region: str | None = None,
        shared_flows=None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.node_id = node_id
        self.store = store
        #: the region this server is the edge for (None = core/origin)
        self.region = region
        #: the multimedia server's SharedFlowManager: fresh streams join
        #: its open batches (None = every stream is its own pump)
        self.shared_flows = shared_flows
        #: (session_id, stream_id) -> the pump serving that viewer leg;
        #: a shared pump appears once per leg, so ``len`` counts the
        #: viewer legs served. Pumps add and remove their own entries.
        self.streams: dict[tuple[str, str], StreamHandler] = {}
        self.deliveries: list[DiscreteDelivery] = []
        self._gates: dict[str, PauseGate] = {}
        #: fault-injection state: a failed server refuses new work and
        #: leaves snapshots of its interrupted streams in ``wreckage``
        #: for the recovery watchdog to fail over
        self.failed = False
        self.wreckage: list[StreamSnapshot] = []
        #: recovery hook (wired by a MediaWatchdog when installed)
        self.on_crash = None

    # -- fault injection ---------------------------------------------------
    def crash(self) -> None:
        """Fail-stop the server, snapshotting every viewer leg it served."""
        if self.failed:
            return
        self.failed = True
        legs = sorted(self.streams.items())
        for key, pump in legs:
            leg = pump.legs[key]
            self.wreckage.append(StreamSnapshot(
                origin=leg.origin,
                position_s=pump.source.media_time_s,
                next_seq=leg.origin.first_seq + leg.sender.packet_count,
                grade=pump.source.grade_index,
                crashed_at=self.sim.now,
            ))
        # a shared pump is met once per leg and stopped once
        for pump in dict.fromkeys(pump for _key, pump in legs):
            pump.stop()
        if self.sim._tracing:
            self.sim._tracer.emit(self.sim.now, "fault.crash", self.name,
                                  node=self.node_id, streams=len(legs))
        if self.on_crash is not None:
            self.on_crash(self)

    # -- session gates -------------------------------------------------------
    def gate_for(self, session_id: str) -> PauseGate:
        gate = self._gates.get(session_id)
        if gate is None:
            gate = PauseGate(self.sim)
            self._gates[session_id] = gate
        return gate

    def pause_session(self, session_id: str) -> None:
        """User pressed pause: stop transmitting this session's data."""
        self.gate_for(session_id).pause()

    def resume_session(self, session_id: str) -> None:
        self.gate_for(session_id).resume()

    # -- continuous streaming -----------------------------------------------
    def start_stream(
        self,
        session_id: str,
        object_path: str,
        stream_id: str,
        client_node: str,
        client_port: int,
        duration_s: float,
        send_offset_s: float = 0.0,
        initial_grade: int = 0,
        floor_grade: int = 99,
        allow_suspend: bool = True,
        ssrc: int = 0,
        start_offset_media_s: float = 0.0,
        first_seq: int = 0,
    ) -> tuple[StreamHandler, MediaStreamQualityConverter]:
        """Put one continuous object on the wire for one viewer.

        Returns the pump serving the viewer and its quality converter
        (which the Server QoS Manager registers for grading). A fresh
        stream on a server with shared flows joins (or opens) the batch
        for its object and starts when the batch window closes; every
        other stream is a one-leg pump that starts now.

        ``start_offset_media_s``/``first_seq`` let a failover replica
        resume a crashed server's stream mid-object instead of from
        the beginning.
        """
        if self.failed:
            raise RuntimeError(f"media server {self.name!r} is down")
        origin = StreamOrigin(
            session_id=session_id, stream_id=stream_id,
            object_path=object_path, client_node=client_node,
            client_port=client_port, duration_s=duration_s,
            floor_grade=floor_grade, allow_suspend=allow_suspend,
            ssrc=ssrc, first_seq=first_seq,
        )
        if origin.key in self.streams:
            raise ValueError(
                f"stream {stream_id!r} already active on {self.name} "
                f"for session {session_id!r}"
            )
        batched = (self.shared_flows is not None
                   and not start_offset_media_s and not first_seq)
        if batched:
            pump = self.shared_flows.join(self, origin, send_offset_s,
                                          initial_grade)
        else:
            pump = StreamHandler(self, origin, send_offset_s, initial_grade,
                                 start_offset_media_s)
        pump.add_leg(origin)
        if not batched:
            pump.start()
        return pump, pump.converter

    def streams_of(self, session_id: str) -> dict[str, StreamHandler]:
        return {sid: h for (sess, sid), h in self.streams.items()
                if sess == session_id}

    def stop_stream(self, session_id: str, stream_id: str) -> None:
        """Detach one viewer leg; a pump stops when its last leg goes."""
        key = (session_id, stream_id)
        if key in self.streams:
            self.streams[key].drop_leg(key)

    def stop_session(self, session_id: str) -> None:
        """Stop every stream this session has on this media server."""
        for sid in list(self.streams_of(session_id)):
            self.stop_stream(session_id, sid)

    # -- discrete delivery -------------------------------------------------------
    def send_discrete(
        self,
        element_id: str,
        object_path: str,
        client_node: str,
        client_port: int,
        flow_id: str,
    ) -> Event:
        """Ship a discrete object reliably; returns its completion event."""
        if self.failed:
            raise RuntimeError(f"media server {self.name!r} is down")
        size = self.store.blob_size(object_path)
        ports = self.network.node(self.node_id).ports
        port = ports.allocate("media")
        sender = ReliableSender(
            self.network, self.node_id, port,
            client_node, client_port, flow_id=flow_id,
        )
        done = sender.send_message(size, payload={"element_id": element_id})

        def close(_ev) -> None:
            sender.close()
            ports.release(port)

        done.callbacks.append(close)
        self.deliveries.append(
            DiscreteDelivery(element_id=element_id, size_bytes=size, done=done)
        )
        return done
