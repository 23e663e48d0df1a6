"""Endpoint transports over the simulated network.

* :class:`DatagramSocket` — UDP-like: unordered, unreliable, no
  flow control. RTP rides on this (paper Figure 5). A socket holds its
  port and counts nothing: the links count what was sent
  (:class:`~repro.net.link.LinkStats`), the packet tap what arrived.
* :class:`ReliableSender` / :class:`ReliableReceiver` — TCP-like:
  a go-back-N ARQ giving loss-free in-order *message* delivery; the
  presentation scenario, text and images use this path. Full TCP
  congestion control is out of scope (the paper treats TCP as a given
  black box); go-back-N reproduces the properties the service layer
  observes: reliability, ordering, and loss-induced extra latency. Its
  segment size, window and timeouts are the module constants below. A
  data packet carries its segment record (:class:`_Segment`) as its
  payload; an ACK carries nothing, and its number is its ``seq``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.des import Event, Simulator
from repro.net.packet import Packet
from repro.net.topology import Network

__all__ = ["DatagramSocket", "ReliableSender", "ReliableReceiver"]

ACK_SIZE_BYTES = 40
#: a reliable sender's segment payload, window (segments in flight) and
#: retransmission timeout: ``RTO_S`` after each ACK, doubled per timeout
#: up to ``MAX_RTO_S``
MSS = 1460
WINDOW_SEGMENTS = 32
RTO_S = 0.2
MAX_RTO_S = 5.0


def _ignore(pkt: Packet) -> None:
    """What a socket built without ``on_packet`` does with an arrival."""


class DatagramSocket:
    """Unreliable datagram endpoint bound to (node, port).

    The port stays bound while the socket is open, so an arrival there
    is not counted as a discard (``Node.rx_discarded``); what arrives
    is ignored.
    """

    def __init__(self, network: Network, node_id: str, port: int) -> None:
        self.network = network
        self.node_id = node_id
        self.port = port
        network.node(node_id).bind(port, _ignore)

    def close(self) -> None:
        self.network.node(self.node_id).unbind(self.port)


@dataclass(slots=True)
class _Segment:
    """One data packet's payload: where its ACK goes, and on the last
    segment of a message the message's size and payload (``msg_bytes``
    is 0 on the others)."""

    seq: int
    size_bytes: int
    reply_to: tuple[str, int]
    msg_bytes: int
    payload: Any


@dataclass(slots=True)
class _PendingMessage:
    last_seq: int
    done: Event


class ReliableSender:
    """Go-back-N sender; one instance per (connection, direction)."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        port: int,
        dst: str,
        dst_port: int,
        flow_id: str,
        protocol: str = "TCP",
    ) -> None:
        self.sim: Simulator = network.sim
        self.network = network
        self.node_id = node_id
        self.port = port
        self.dst = dst
        self.dst_port = dst_port
        self.flow_id = flow_id
        self.protocol = protocol
        self.rto_s = RTO_S

        #: the segments from the oldest unacked one (``_base``) on: an
        #: ACK releases those it covers
        self._segments: list[_Segment] = []
        self._base = 0  # oldest unacked seq
        self._next = 0  # next never-sent seq
        self._msgs: deque[_PendingMessage] = deque()
        self._timer_token = 0
        self.retransmissions = 0
        self._closed = False
        network.node(node_id).bind(port, self._on_ack)

    # -- public API -----------------------------------------------------
    def send_message(self, size_bytes: int, payload: Any = None) -> Event:
        """Queue a message; the returned event triggers when fully acked."""
        if self._closed:
            raise RuntimeError("sender is closed")
        if size_bytes <= 0:
            raise ValueError(f"message size must be positive, got {size_bytes}")
        n_segs = (size_bytes + MSS - 1) // MSS
        first_seq = self._base + len(self._segments)
        last_seq = first_seq + n_segs - 1
        reply_to = (self.node_id, self.port)
        self._segments.extend(_Segment(seq, MSS, reply_to, 0, None)
                              for seq in range(first_seq, last_seq))
        self._segments.append(_Segment(
            last_seq, size_bytes - (n_segs - 1) * MSS, reply_to, size_bytes,
            payload))
        done = self.sim.event()
        self._msgs.append(_PendingMessage(last_seq, done))
        self._pump()
        return done

    def close(self) -> None:
        self._closed = True
        self._timer_token += 1
        self.network.node(self.node_id).unbind(self.port)

    # -- internals --------------------------------------------------------
    def _transmit(self, seg: _Segment) -> None:
        # a segment's packet adds 40 bytes of TCP/IP header
        self.network.send(Packet(self.node_id, self.dst, seg.size_bytes + 40,
                                 self.protocol, self.flow_id, self.dst_port,
                                 seg, seg.seq))

    def _pump(self) -> None:
        base = self._base
        while (
            self._next < base + len(self._segments)
            and self._next < base + WINDOW_SEGMENTS
        ):
            self._transmit(self._segments[self._next - base])
            self._next += 1
        if self._base < self._next:
            self._arm_timer()
        else:
            self._timer_token += 1  # nothing outstanding: cancel the timer

    def _arm_timer(self) -> None:
        self._timer_token += 1
        token = self._timer_token
        self.sim.call_later(self.rto_s, self._on_timer, token)

    def _on_timer(self, token: int) -> None:
        # a stale token: an ACK re-armed or cancelled it since, or
        # close() moved it on (so data is outstanding when it is current)
        if token != self._timer_token:
            return
        # Go-back-N: resend the whole outstanding window with backoff.
        self.rto_s = min(self.rto_s * 2.0, MAX_RTO_S)
        if self.sim._tracing:
            self.sim._tracer.emit(self.sim.now, "channel.retransmit",
                                  self.flow_id, node=self.node_id,
                                  window=self._next - self._base,
                                  rto_s=self.rto_s)
        segments = self._segments
        for k in range(self._next - self._base):
            self.retransmissions += 1
            self._transmit(segments[k])
        self._arm_timer()

    def _on_ack(self, pkt: Packet) -> None:
        # after close() the port is unbound: no ACK reaches this
        if pkt.seq < self._base:
            return
        del self._segments[:pkt.seq + 1 - self._base]
        self._base = pkt.seq + 1
        self.rto_s = RTO_S
        # Complete any messages whose last segment is now acked.
        while self._msgs and self._msgs[0].last_seq < self._base:
            self._msgs.popleft().done.succeed(self.sim.now)
        self._pump()


class ReliableReceiver:
    """Go-back-N receiver with message reassembly.

    ``on_message(payload, size_bytes, flow_id)`` fires once per
    complete message, in order. Handles any number of concurrent
    sender flows by keying state on ``flow_id``.
    """

    def __init__(
        self,
        network: Network,
        node_id: str,
        port: int,
        on_message: Callable[[Any, int, str], None] | None = None,
    ) -> None:
        self.sim = network.sim
        self.network = network
        self.node_id = node_id
        self.port = port
        self.on_message = on_message
        self._rcv_next: dict[str, int] = {}
        network.node(node_id).bind(port, self._on_data)

    def close(self) -> None:
        self.network.node(self.node_id).unbind(self.port)

    def _on_data(self, pkt: Packet) -> None:
        flow = pkt.flow_id
        seg: _Segment = pkt.payload
        expected = self._rcv_next.get(flow, 0)
        if seg.seq == expected:
            self._rcv_next[flow] = expected + 1
            if seg.msg_bytes:
                if self.sim._tracing:
                    self.sim._tracer.emit(self.sim.now, "channel.message",
                                          flow, node=self.node_id,
                                          size_bytes=seg.msg_bytes)
                if self.on_message is not None:
                    self.on_message(seg.payload, seg.msg_bytes, flow)
            ack = expected
        else:
            ack = expected - 1  # re-acknowledge the last in-order segment
        if ack < 0:
            return
        reply_node, reply_port = seg.reply_to
        self.network.send(Packet(self.node_id, reply_node, ACK_SIZE_BYTES,
                                 "TCP", flow, reply_port, seq=ack))
