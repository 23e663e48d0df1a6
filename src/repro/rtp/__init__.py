"""RTP/RTCP implementation over the simulated datagram transport.

The paper (§6.3) carries time-sensitive media on RTP over UDP and
derives network statistics (delay, delay jitter, packet loss) from
RTCP receiver reports, which drive the server's quality-grading loop.
This package implements the subset actually exercised:

* RTP packetization with sequence numbers, media timestamps and
  payload types (fragmentation for frames above the MTU);
* the RFC 3550 interarrival-jitter estimator;
* RTCP receiver reports (fraction lost, cumulative lost, highest
  sequence, jitter, mean delay) emitted on a configurable interval.
"""

from repro.rtp.packets import RtpPacket, RtcpReceiverReport
from repro.rtp.jitter import InterarrivalJitterEstimator
from repro.rtp.session import RtpReceiver, RtpSender, RtpReceiverStats
from repro.rtp.rtcp import RtcpReporter, RtcpSink

__all__ = [
    "InterarrivalJitterEstimator",
    "RtcpReceiverReport",
    "RtcpReporter",
    "RtcpSink",
    "RtpPacket",
    "RtpReceiver",
    "RtpReceiverStats",
    "RtpSender",
]
