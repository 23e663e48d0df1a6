"""Packets and the protocol tap (packet log).

The tap records every packet the network delivers, keyed by protocol
label — the raw evidence from which the Figure 5 (protocol stack)
reproduction derives which stream type traversed which stack.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

__all__ = ["Packet", "TapRecord", "PacketTap"]


@dataclass(slots=True)
class Packet:
    """A network-layer datagram.

    ``protocol`` is the stack label carried for accounting ("UDP",
    "TCP", "RTP", "RTCP", "SMTP", ...); ``flow_id`` identifies the
    application flow (one per media stream / control session);
    ``dst_port`` selects the handler bound at the destination node.
    """

    src: str
    dst: str
    size_bytes: int
    protocol: str
    flow_id: str
    dst_port: int
    payload: Any = None
    seq: int = 0
    #: correlation keys for frame-lifecycle tracing and for the
    #: network's frame ledger: the session the packet belongs to (""
    #: for anonymous traffic) and the media frame it carries a
    #: fragment of (-1 for non-frame packets)
    session: str = ""
    frame_seq: int = -1
    created_at: float = 0.0
    hops: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")


@dataclass(frozen=True, slots=True)
class TapRecord:
    """One delivered (or dropped) packet, as seen by the tap."""

    time: float
    event: str  # "deliver" | "drop-queue" | "drop-loss" | "rx-discard"
    protocol: str
    flow_id: str
    src: str
    dst: str
    size_bytes: int
    seq: int


#: fields of one tap row, in :class:`TapRecord` order
_ROW = len(fields(TapRecord))


class PacketTap:
    """Accumulates per-packet records and per-protocol aggregates.

    The hot path appends one row's fields to a flat list (eight
    references a packet, less than a record object);
    :class:`TapRecord` views are built when :attr:`records` is read.
    """

    def __init__(self) -> None:
        self._rows: list[Any] = []
        self.bytes_by_protocol: dict[str, int] = {}
        self.count_by_protocol: dict[str, int] = {}
        #: packets delivered to a node but addressed to an unbound port
        self.discards_by_node: dict[str, int] = {}

    def record(self, time: float, event: str, pkt: Packet) -> None:
        protocol = pkt.protocol
        size = pkt.size_bytes
        self._rows.extend((time, event, protocol, pkt.flow_id, pkt.src,
                           pkt.dst, size, pkt.seq))
        if event == "deliver":
            if protocol in self.count_by_protocol:
                self.bytes_by_protocol[protocol] += size
                self.count_by_protocol[protocol] += 1
            else:
                self.bytes_by_protocol[protocol] = size
                self.count_by_protocol[protocol] = 1

    def record_discard(self, time: float, node_id: str, pkt: Packet) -> None:
        """An endpoint dropped a delivered packet: no handler on its port."""
        self.discards_by_node[node_id] = \
            self.discards_by_node.get(node_id, 0) + 1
        self._rows.extend((time, "rx-discard", pkt.protocol, pkt.flow_id,
                           pkt.src, pkt.dst, pkt.size_bytes, pkt.seq))

    @property
    def records(self) -> list[TapRecord]:
        """Every packet seen so far, in recording order."""
        rows = self._rows
        return [TapRecord(*rows[i:i + _ROW])
                for i in range(0, len(rows), _ROW)]

    def rx_discarded(self, node_id: str | None = None) -> int:
        """Total unbound-port discards (optionally for one node)."""
        if node_id is not None:
            return self.discards_by_node.get(node_id, 0)
        return sum(self.discards_by_node.values())

    def protocols_for_flow(self, flow_id: str) -> set[str]:
        return {r.protocol for r in self.records if r.flow_id == flow_id}

    def delivered(self, flow_id: str | None = None) -> list[TapRecord]:
        return [
            r
            for r in self.records
            if r.event == "deliver" and (flow_id is None or r.flow_id == flow_id)
        ]

    def drops(self) -> list[TapRecord]:
        return [r for r in self.records if r.event.startswith("drop")]
