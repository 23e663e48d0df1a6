"""RTP and RTCP packet structures.

These are the header fields the paper enumerates for RTP data packets
("a timestamp ... packet sequencing information ... the packet's data
payload type") and RTCP receiver reports ("packet's transmission
delay, delay jitter and packet loss").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

__all__ = [
    "RTP_HEADER_BYTES",
    "RTCP_RR_BYTES",
    "SEQ_MODULUS",
    "RtpPacket",
    "RtcpReceiverReport",
]

RTP_HEADER_BYTES = 12
RTCP_RR_BYTES = 52
#: RTP sequence numbers are 16-bit and wrap.
SEQ_MODULUS = 1 << 16


class _RtpFields(NamedTuple):
    ssrc: int
    payload_type: int
    seq: int
    timestamp: int
    marker: bool
    payload_bytes: int
    fragment_index: int = 0
    fragment_count: int = 1
    frame: Any = None  # carried on the last fragment only


class RtpPacket(_RtpFields):
    """One RTP datagram (possibly a fragment of a media frame).

    ``timestamp`` is in media clock ticks; all fragments of one frame
    share it. ``marker`` is set on the final fragment of a frame
    (standard RTP video usage).

    An immutable record: a validated named tuple, one per packet on
    the wire, so construction is a single ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, ssrc: int, payload_type: int, seq: int, timestamp: int,
                marker: bool, payload_bytes: int, fragment_index: int = 0,
                fragment_count: int = 1, frame: Any = None) -> "RtpPacket":
        if not (0 <= seq < SEQ_MODULUS):
            raise ValueError(f"seq must be in [0, {SEQ_MODULUS}), got {seq}")
        if payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if not (0 <= fragment_index < fragment_count):
            raise ValueError("fragment_index out of range")
        return tuple.__new__(cls, (
            ssrc, payload_type, seq, timestamp, marker, payload_bytes,
            fragment_index, fragment_count, frame))

    @property
    def size_bytes(self) -> int:
        return self.payload_bytes + RTP_HEADER_BYTES


@dataclass(frozen=True, slots=True)
class RtcpReceiverReport:
    """Receiver report fed back to the Server QoS Manager: what its
    grading reads of an RFC 3550 report block.

    ``fraction_lost`` covers the interval since the previous report.
    ``mean_delay_s`` and ``jitter_s`` are the receiver's current
    estimates (simulated
    clocks are synchronized, so one-way delay is directly
    observable — a luxury the 1996 testbed approximated from RTCP
    round trips).
    """

    stream_id: str
    fraction_lost: float
    jitter_s: float
    mean_delay_s: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction_lost <= 1.0):
            raise ValueError("fraction_lost must be in [0, 1]")
