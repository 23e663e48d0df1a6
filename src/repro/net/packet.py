"""Packets and the protocol tap.

The tap counts every packet the network delivers, by protocol label
and flow — the evidence from which the Figure 5 (protocol stack)
reproduction derives which stream type traversed which stack. It is
the one count of deliveries: a node or socket keeps none of its own.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

__all__ = ["Packet", "PacketTap"]


class Packet:
    """A network-layer datagram.

    ``protocol`` is the stack label carried for accounting ("UDP",
    "TCP", "RTP", "RTCP", "SMTP", ...); ``flow_id`` identifies the
    application flow (one per media stream / control session);
    ``dst_port`` selects the handler bound at the destination node.
    ``session`` and ``frame_seq`` are the correlation keys for
    frame-lifecycle tracing and for the network's frame ledger: the
    session the packet belongs to ("" for anonymous traffic) and the
    media frame it carries a fragment of (-1 for non-frame packets).

    One is built per datagram sent, so construction is one Python call,
    the size check included. Packets compare by identity.
    """

    __slots__ = ("src", "dst", "size_bytes", "protocol", "flow_id",
                 "dst_port", "payload", "seq", "session", "frame_seq",
                 "created_at")

    def __init__(self, src: str, dst: str, size_bytes: int, protocol: str,
                 flow_id: str, dst_port: int, payload: Any = None,
                 seq: int = 0, session: str = "", frame_seq: int = -1,
                 created_at: float = 0.0) -> None:
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {size_bytes}")
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.protocol = protocol
        self.flow_id = flow_id
        self.dst_port = dst_port
        self.payload = payload
        self.seq = seq
        self.session = session
        self.frame_seq = frame_seq
        self.created_at = created_at

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"Packet({fields})"


class PacketTap:
    """Per-protocol and per-flow packet counters.

    Nothing is kept per packet, so the tap's size follows the flows of
    a run, not its length; which packet went where is the trace's to
    answer (``net.deliver``, ``link.drop``, ``net.rx_discard``).
    :meth:`Node.deliver <repro.net.topology.Node.deliver>` counts the
    deliveries, here and nowhere else. Drops are counted where they
    happen, per link and kind (:class:`~repro.net.link.LinkStats`), and
    each node counts its own unbound-port discards
    (``Node.rx_discarded``); a flow whose every packet was dropped is
    still listed here, with 0.
    """

    def __init__(self) -> None:
        # defaultdicts, not Counters: a Counter store goes through a
        # Python-level slot and costs the hot path twice as much
        self.bytes_by_protocol: dict[str, int] = defaultdict(int)
        #: protocol -> {flow -> packets delivered}; a flow that only ever
        #: lost packets is present with 0
        self.count_by_flow: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
