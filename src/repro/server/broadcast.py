"""Periodic broadcast of top-k hot documents (quasi-harmonic family).

For the *hottest* objects, even batched unicast repeats the content
once per batch. Periodic broadcasting (the VoD literature's answer,
see PAPERS.md: quasi-harmonic broadcasting) makes origin egress
**constant in the audience size**: the object is cut into ``n``
segments that cycle continuously on parallel channels, early segments
on fast channels and late segments on slow ones, so a viewer who
tunes in waits at most one slot of the first segment and then always
receives each later segment in time.

:func:`quasi_harmonic_schedule` computes the segment/channel layout
for the harmonic family with an ``m``-subslot safety correction:
segment 1 streams at the full consumption rate ``b`` and segment
``i ≥ 2`` at ``b / (i - 1 + 1/m)`` — slightly above classic harmonic
(``b / i``), which is known to under-deliver the first slot; as
``m → ∞`` the total tends to ``b·(1 + H(n-1))``.

:class:`PeriodicBroadcaster` runs the channels as carrier traffic
origin → fan-out router (the POP keeps the cycling segments
buffered), and serves joining viewers from the fan-out point after
the bounded slot wait. A viewer is an ordinary stream of the media
server, placed at the POP: ``join`` calls ``MediaServer.start_stream``
with ``at_node`` set to the fan-out node and the slot wait as the send
offset, so the viewer gets a one-leg pump there (its own RTP sequence
space, fed by the POP's reconstructed copy) that is registered,
stopped, crashed and failed over like any other stream.

:class:`HotSet` picks *which* documents deserve a broadcast channel:
a demand counter over document requests whose ``top(k)`` is the
broadcast set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.des import Event, Simulator
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.server.media_server import MediaServer

__all__ = [
    "BroadcastChannel",
    "BroadcastSchedule",
    "quasi_harmonic_schedule",
    "PeriodicBroadcaster",
    "HotSet",
]

#: carrier packet size for channel traffic (MTU-ish)
CARRIER_PACKET_BYTES = 1400


@dataclass(frozen=True, slots=True)
class BroadcastChannel:
    """One cycling channel: segment index, its rate, its slot."""

    segment: int
    rate_bps: float
    #: seconds of media this channel's segment covers
    segment_s: float


@dataclass(frozen=True, slots=True)
class BroadcastSchedule:
    """The full channel layout for one broadcast object."""

    duration_s: float
    consume_rate_bps: float
    subslots: int
    channels: tuple[BroadcastChannel, ...]

    @property
    def n_segments(self) -> int:
        return len(self.channels)

    @property
    def total_rate_bps(self) -> float:
        """Origin egress rate — constant, whatever the audience."""
        return sum(ch.rate_bps for ch in self.channels)

    @property
    def slot_s(self) -> float:
        """One slot = one first-segment period = the max viewer wait."""
        return self.channels[0].segment_s

    def max_wait_s(self) -> float:
        return self.slot_s

    def bandwidth_ratio(self) -> float:
        """Total broadcast rate over one unicast stream's rate."""
        return self.total_rate_bps / self.consume_rate_bps


def quasi_harmonic_schedule(
    duration_s: float,
    consume_rate_bps: float,
    n_segments: int,
    subslots: int = 4,
) -> BroadcastSchedule:
    """Segment/channel layout for one object (equal-length segments).

    ``subslots`` is the quasi-harmonic safety parameter ``m``: larger
    values approach the harmonic lower bound, smaller ones spend more
    bandwidth on early segments to guarantee in-time delivery.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if consume_rate_bps <= 0:
        raise ValueError("consume_rate_bps must be positive")
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    if subslots < 1:
        raise ValueError("subslots must be >= 1")
    segment_s = duration_s / n_segments
    channels = []
    for i in range(1, n_segments + 1):
        if i == 1:
            rate = consume_rate_bps
        else:
            rate = consume_rate_bps / (i - 1 + 1.0 / subslots)
        channels.append(
            BroadcastChannel(segment=i, rate_bps=rate, segment_s=segment_s)
        )
    return BroadcastSchedule(
        duration_s=duration_s,
        consume_rate_bps=consume_rate_bps,
        subslots=subslots,
        channels=tuple(channels),
    )


class PeriodicBroadcaster:
    """Cycles one hot object's segments origin → fan-out router.

    Carrier traffic runs for ``horizon_s`` at the schedule's total
    rate regardless of how many viewers join — the defining property.
    A joining viewer waits until the next slot boundary (the bounded
    quasi-harmonic startup delay) and then receives the object's full
    frame sequence from the fan-out point, on its own RTP sequence
    space, exactly as a shared flow's viewer would.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        ms: MediaServer,
        object_path: str,
        fanout_node: str,
        n_segments: int = 8,
        subslots: int = 4,
        horizon_s: float = 60.0,
    ) -> None:
        obj = ms.store.get(object_path)
        codec = ms.store.codec_for(object_path)
        duration_s = getattr(obj, "duration_s", None) or 60.0
        rate = codec.best.mean_frame_bytes * 8.0 * codec.best.frame_rate
        self.sim = sim
        self.network = network
        self.ms = ms
        self.object_path = object_path
        self.fanout_node = fanout_node
        self.horizon_s = horizon_s
        self.schedule = quasi_harmonic_schedule(
            duration_s, rate, n_segments, subslots=subslots
        )
        self.viewers_served = 0
        self.carrier_bytes = 0
        # The POP-side sink that "buffers the cycling segments": we
        # model reception, not storage, so the handler only counts.
        sink = network.node(fanout_node)
        self._sink_port = sink.ports.allocate("media")
        sink.bind(self._sink_port, self._on_carrier)
        self._channel_procs = [
            sim.process(self._channel(ch), name=f"bcast:{object_path}:{ch.segment}")
            for ch in self.schedule.channels
        ]
        if sim._tracing:
            sim._tracer.emit(
                sim.now, "bcast.start", object_path, node=ms.node_id,
                fanout=fanout_node, segments=n_segments,
                total_rate_bps=self.schedule.total_rate_bps,
            )

    # -- carrier side ------------------------------------------------------
    def _channel(self, ch: BroadcastChannel):
        """Emit one channel's carrier packets until the horizon."""
        sim = self.sim
        interval = CARRIER_PACKET_BYTES * 8.0 / ch.rate_bps
        while sim.now < self.horizon_s:
            if not self.ms.failed:
                pkt = Packet(
                    src=self.ms.node_id,
                    dst=self.fanout_node,
                    size_bytes=CARRIER_PACKET_BYTES,
                    protocol="BCAST",
                    flow_id=f"bcast:{self.object_path}:{ch.segment}",
                    dst_port=self._sink_port,
                )
                self.carrier_bytes += CARRIER_PACKET_BYTES
                if sim._tracing_detail:
                    sim._tracer.emit(
                        sim.now, "bcast.carrier", self.object_path,
                        node=self.ms.node_id, segment=ch.segment,
                        bytes=CARRIER_PACKET_BYTES,
                    )
                self.network.send(pkt)
            yield sim.timeout(interval)

    def _on_carrier(self, pkt: Packet) -> None:
        # Segments accumulate in the POP's buffer; nothing to do in
        # the model beyond receiving them (the join path synthesizes
        # the buffered copy from the same seeded trace).
        return

    # -- viewer side -------------------------------------------------------
    def wait_s(self, at: float | None = None) -> float:
        """Startup wait for a viewer tuning in at ``at`` (default now)."""
        now = self.sim.now if at is None else at
        slot = self.schedule.slot_s
        into = now % slot
        return 0.0 if into == 0.0 else slot - into

    def join(
        self,
        session_id: str,
        stream_id: str,
        client_node: str,
        client_port: int,
        ssrc: int = 0,
    ) -> Event:
        """Serve one viewer from the fan-out point's buffered copy.

        Returns the finished event of the viewer's pump. The viewer's
        frames come from the POP (not the origin): origin egress stays
        the schedule's constant carrier rate.
        """
        wait = self.wait_s()
        self.viewers_served += 1
        if self.sim._tracing:
            self.sim._tracer.emit(
                self.sim.now, "bcast.join", stream_id, session=session_id,
                node=self.fanout_node, wait_s=wait,
            )
        pump, _converter = self.ms.start_stream(
            session_id, self.object_path, stream_id, client_node,
            client_port, duration_s=self.schedule.duration_s,
            send_offset_s=wait, ssrc=ssrc, at_node=self.fanout_node,
        )
        return pump.finished

    def stop(self) -> None:
        if self.sim._tracing:
            self.sim._tracer.emit(
                self.sim.now, "bcast.stop", self.object_path,
                node=self.ms.node_id, viewers=self.viewers_served,
                carrier_bytes=self.carrier_bytes,
            )
        for proc in self._channel_procs:
            if proc.is_alive:
                proc.interrupt("broadcast stopped")
        sink = self.network.node(self.fanout_node)
        sink.unbind(self._sink_port)
        sink.ports.release(self._sink_port)


class HotSet:
    """Demand counter choosing the top-k broadcast documents."""

    def __init__(self) -> None:
        self._demand: dict[str, int] = {}

    def record(self, name: str) -> None:
        self._demand[name] = self._demand.get(name, 0) + 1

    def demand(self, name: str) -> int:
        return self._demand.get(name, 0)

    def top(self, k: int) -> list[str]:
        """The k most-requested documents (ties broken by name)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        ranked = sorted(self._demand.items(), key=lambda kv: (-kv[1], kv[0]))
        return [name for name, _count in ranked[:k]]
