"""RTP sender and receiver endpoints.

The sender packetizes media frames (fragmenting above the MTU, all
fragments sharing the frame's timestamp, marker on the last); the
receiver reassembles frames, tracks loss from sequence numbers, and
maintains the delay/jitter estimates the Client QoS Manager reports
upstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.des import Simulator
from repro.media.types import Frame
from repro.net.channel import DatagramSocket
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.rtp.jitter import InterarrivalJitterEstimator
from repro.rtp.packets import RTP_HEADER_BYTES, SEQ_MODULUS, RtpPacket

__all__ = ["RtpSender", "RtpReceiver", "RtpReceiverStats", "fragment_plan"]

#: RTP payload bytes per packet; a larger frame is fragmented
MTU_PAYLOAD = 1400
_HALF_SEQ = SEQ_MODULUS // 2
_GAIN = InterarrivalJitterEstimator.GAIN


@lru_cache(maxsize=256)
def fragment_plan(size_bytes: int, mtu_payload: int) -> tuple[int, ...]:
    """Payload bytes of each fragment of a ``size_bytes`` frame.

    Full ``mtu_payload`` fragments, then the remainder. A pure function
    of two integers, memoised: a shared flow hands one frame to every
    subscriber's sender, and each of them reads the same plan.
    """
    n_frags = max(1, -(-size_bytes // mtu_payload))
    return (mtu_payload,) * (n_frags - 1) + (
        size_bytes - mtu_payload * (n_frags - 1),)


class RtpSender:
    """Packetizes frames of one media stream onto the network."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        port: int,
        dst: str,
        dst_port: int,
        ssrc: int,
        payload_type: int,
        stream_id: str,
        session: str = "",
        first_seq: int = 0,
    ) -> None:
        self.sim: Simulator = network.sim
        self.network = network
        self.socket = DatagramSocket(network, node_id, port)
        self.node_id = node_id
        self.dst = dst
        self.dst_port = dst_port
        self.ssrc = ssrc
        self.payload_type = payload_type
        self.stream_id = stream_id
        self.session = session
        # first_seq lets a failover sender continue the RTP sequence
        # space of the stream it replaces, keeping receiver-side loss
        # accounting coherent across the switch.
        self._seq = first_seq % SEQ_MODULUS
        self.packet_count = 0
        # the session's page of the network's frame ledger, shared with
        # its other senders (None: anonymous traffic is not ledgered)
        self._sent = (network.frames_sent.setdefault(session, deque())
                      if session else None)
        #: the node's next-link table (edited in place by the network)
        self._out = network._out_links[node_id]

    def send_frame(self, frame: Frame) -> int:
        """Packetize and transmit one frame; returns packets sent."""
        if frame.size_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        plan = fragment_plan(frame.size_bytes, MTU_PAYLOAD)
        n_frags = len(plan)
        last = n_frags - 1
        seq0 = self._seq
        now = self.sim._now
        if self._sent is not None:
            self._sent.extend((self.stream_id, frame.seq, now))
        dst = self.dst
        if dst != self.node_id and dst not in self._out:
            self.network._route(self.node_id, dst)
        send = (self.network.send if dst == self.node_id     # loopback
                else self._out[dst].enqueue)
        src, ssrc, pt, stream, port, session, media_time, frame_seq = (
            self.node_id, self.ssrc, self.payload_type, self.stream_id,
            self.dst_port, self.session, frame.media_time, frame.seq)
        seq = seq0
        new = tuple.__new__
        for i, frag_bytes in enumerate(plan):
            # Both records positionally, in field order: keyword calls
            # cost as much again as building the packet. The RTP header
            # skips RtpPacket's checks, which hold here by construction:
            # seq is kept modulo 2^16, the plan's sizes are positive
            # (the frame's is, checked above) and i < n_frags.
            rtp = new(RtpPacket, (ssrc, pt, seq, media_time, i == last,
                                  frag_bytes, i, n_frags,
                                  frame if i == last else None))
            send(Packet(src, dst, frag_bytes + RTP_HEADER_BYTES, "RTP",
                        stream, port, rtp, seq, session, frame_seq, now))
            seq = (seq + 1) % SEQ_MODULUS
        self._seq = seq
        self.packet_count += n_frags
        if self.sim._tracing_detail:
            self.sim._tracer.emit(self.sim.now, "rtp.send", self.stream_id,
                                  session=self.session, frame=frame.seq,
                                  media_time=frame.media_time, seq0=seq0,
                                  packets=n_frags, bytes=frame.size_bytes)
        return n_frags

    def close(self) -> None:
        self.socket.close()


@dataclass(slots=True)
class RtpReceiverStats:
    """Receiver-side counters and estimates for one stream.

    What an arrival writes: ``packets_received``, the unwrapped
    ``base_seq`` / ``highest_seq`` and the delay sum and last sample.
    Loss, the delay sample count, the interval's receptions and the
    frames reassembled follow from those and are derived when an RTCP
    report or a result reads them.
    """

    packets_received: int = 0
    frames_dropped_fragments: int = 0
    base_seq: int | None = None
    highest_seq: int | None = None
    delay_sum_s: float = 0.0
    #: where the current RTCP interval began, moved by the reporter
    interval_expected_base: int = 0
    interval_received_base: int = 0
    #: frame seqs reassembled, in order (the receiver's ``frames_done``)
    frames_done: deque[int] = field(default_factory=deque)

    @property
    def interval_received(self) -> int:
        return self.packets_received - self.interval_received_base

    @property
    def mean_delay_s(self) -> float:
        if self.packets_received == 0:
            return 0.0
        return self.delay_sum_s / self.packets_received

    @property
    def expected(self) -> int:
        if self.base_seq is None or self.highest_seq is None:
            return 0
        return self.highest_seq - self.base_seq + 1

    @property
    def cumulative_lost(self) -> int:
        """Expected minus received, never negative (duplicates)."""
        return max(0, self.expected - self.packets_received)


class RtpReceiver:
    """Receives one stream's RTP packets and reassembles frames.

    Complete frames are handed to ``on_frame(frame, arrival_s)``.
    Loss accounting follows the RFC's expected-vs-received method on
    (unwrapped) sequence numbers; a frame with any missing fragment is
    counted as dropped when a newer frame completes. ``jitter_s`` is
    the RFC 3550 interarrival jitter, updated per arrival as
    :class:`~repro.rtp.jitter.InterarrivalJitterEstimator` does.
    """

    def __init__(
        self,
        network: Network,
        node_id: str,
        port: int,
        clock_rate: int,
        stream_id: str,
        on_frame: Callable[[Frame, float], None] | None = None,
        session: str = "",
    ) -> None:
        if clock_rate <= 0:
            raise ValueError("clock_rate must be positive")
        self.sim: Simulator = network.sim
        self.network = network
        self.node_id = node_id
        self.port = port
        self.clock_rate = clock_rate
        self.stream_id = stream_id
        self.on_frame = on_frame
        #: session id for tracing; the RTCP reports on this stream
        #: carry it too
        self.session = session
        self.stats = RtpReceiverStats()
        self.jitter_s = 0.0
        self._prev_arrival = 0.0
        self._prev_timestamp = 0
        self._frag_seen: dict[int, int] = {}  # timestamp -> fragments seen
        #: frame seqs reassembled, in order (the stats' deque, as the
        #: ledger's pages are deques), and RTP timestamps given up on
        self.frames_done = self.stats.frames_done
        self.frames_stale: set[int] = set()
        network.node(node_id).bind(port, self._on_packet)

    def close(self) -> None:
        self.network.node(self.node_id).unbind(self.port)

    # -- packet path ------------------------------------------------------
    def _on_packet(self, pkt: Packet) -> None:
        rtp = pkt.payload
        if type(rtp) is not RtpPacket:
            return
        now = self.sim._now
        timestamp = rtp.timestamp
        st = self.stats
        st.packets_received += 1
        high = st.highest_seq
        if high is None:
            st.base_seq = st.highest_seq = rtp.seq
        else:
            # Unwrap against the highest so far: a seq less than half
            # the sequence space ahead of it (the in-order next packet
            # is 1 ahead) advances it; any other is behind it.
            ahead = (rtp.seq - high) % SEQ_MODULUS
            if 0 < ahead < _HALF_SEQ:
                st.highest_seq = high + ahead
            # RFC 3550 interarrival jitter: J += (|D| - J) / 16
            transit_delta = (now - self._prev_arrival) - (
                (timestamp - self._prev_timestamp) / self.clock_rate)
            self.jitter_s += (abs(transit_delta) - self.jitter_s) * _GAIN
        self._prev_arrival = now
        self._prev_timestamp = timestamp
        delay = now - pkt.created_at
        st.delay_sum_s += delay
        if self.sim._tracing_detail:
            self.sim._tracer.emit(now, "rtp.recv", self.stream_id,
                                  session=pkt.session or self.session,
                                  frame=pkt.frame_seq, seq=rtp.seq,
                                  delay_s=delay, jitter_s=self.jitter_s)
        # Frame reassembly.
        seen = self._frag_seen.get(timestamp, 0) + 1
        if seen == rtp.fragment_count and rtp.marker:
            self._frag_seen.pop(timestamp, None)
            self.frames_done.append(pkt.frame_seq)
            if self.sim._tracing_detail:
                self.sim._tracer.emit(
                    now, "rtp.frame", self.stream_id,
                    session=pkt.session or self.session,
                    frame=rtp.frame.seq if rtp.frame is not None
                    else pkt.frame_seq,
                    media_time=timestamp, delay_s=delay)
            if self._frag_seen:
                self._gc_stale_frames(timestamp)
            if self.on_frame is not None and rtp.frame is not None:
                self.on_frame(rtp.frame, now)
        else:
            self._frag_seen[timestamp] = seen

    def _gc_stale_frames(self, completed_ts: int) -> None:
        """Frames older than a completed one can never finish: count them."""
        stale = [ts for ts in self._frag_seen if ts < completed_ts]
        self.frames_stale.update(stale)
        for ts in stale:
            del self._frag_seen[ts]
            self.stats.frames_dropped_fragments += 1
            if self.sim._tracing:
                self.sim._tracer.emit(self.sim.now, "rtp.frame_drop",
                                      self.stream_id, session=self.session,
                                      media_time=ts, reason="fragments")

    # -- RTCP support -------------------------------------------------------
    def peek_interval_loss(self) -> float:
        """Current interval's loss fraction, without resetting it
        (used by adaptive reporters to detect congestion early)."""
        st = self.stats
        if st.highest_seq is None or st.base_seq is None:
            return 0.0
        interval_expected = st.expected - st.interval_expected_base
        if interval_expected <= 0:
            return 0.0
        lost = max(0, interval_expected - st.interval_received)
        return min(1.0, lost / interval_expected)

    def snapshot_interval(self) -> tuple[float, int]:
        """Return (fraction_lost, received) for the interval and reset it."""
        st = self.stats
        if st.highest_seq is None or st.base_seq is None:
            return 0.0, 0
        expected_now = st.expected
        interval_expected = expected_now - st.interval_expected_base
        received = st.interval_received
        st.interval_expected_base = expected_now
        st.interval_received_base = st.packets_received
        if interval_expected <= 0:
            return 0.0, received
        lost = max(0, interval_expected - received)
        return min(1.0, lost / interval_expected), received
