"""RTCP feedback: periodic receiver reports and the server-side sink.

"Based on this information, the client QoS manager, periodically or
in specifically calculated intervals, sends feedback reports to the
sending side, the Server QoS Manager" (§4). :class:`RtcpReporter`
implements the client half — one process per monitored stream — and
:class:`RtcpSink` the server half, dispatching reports to a
registered handler (the Server QoS Manager).
"""

from __future__ import annotations

from typing import Callable

from repro.des import Simulator
from repro.net.channel import DatagramSocket
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.rtp.packets import RTCP_RR_BYTES, RtcpReceiverReport
from repro.rtp.session import RtpReceiver

__all__ = ["RtcpReporter", "RtcpSink"]

#: an adaptive reporter relaxes toward this interval while clean...
MAX_INTERVAL_S = 4.0
#: ...and calls an interval congested at this loss fraction or jitter
LOSS_THRESHOLD = 0.02
JITTER_THRESHOLD_S = 0.03


class RtcpReporter:
    """Emits receiver reports for one RTP stream.

    Two modes, per the paper's "periodically or in specifically
    calculated intervals":

    * fixed (default): one report every ``interval_s``;
    * adaptive (``adaptive=True``): the next interval is calculated
      from the observed condition — congested intervals shrink toward
      ``min_interval_s`` (faster feedback when the server most needs
      it), clean ones relax toward ``MAX_INTERVAL_S`` (less control
      overhead when nothing changes).
    """

    def __init__(
        self,
        network: Network,
        receiver: RtpReceiver,
        node_id: str,
        port: int,
        dst: str,
        dst_port: int,
        interval_s: float = 1.0,
        adaptive: bool = False,
        min_interval_s: float = 0.25,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if adaptive and not (0 < min_interval_s <= interval_s
                             <= MAX_INTERVAL_S):
            raise ValueError(
                "need 0 < min_interval_s <= interval_s <= MAX_INTERVAL_S"
            )
        self.sim: Simulator = network.sim
        self.network = network
        self.receiver = receiver
        self.node_id = node_id
        self.dst = dst
        self.dst_port = dst_port
        self.interval_s = interval_s
        self.adaptive = adaptive
        self.min_interval_s = min_interval_s
        self.current_interval_s = interval_s
        self.reports_sent = 0
        self._stopped = False
        self.socket = DatagramSocket(network, node_id, port)
        self.sim.process(self._run(), name=f"rtcp:{receiver.stream_id}")

    def stop(self) -> None:
        self._stopped = True

    def _next_interval(self, report: RtcpReceiverReport) -> float:
        """The "specifically calculated" interval after a report."""
        if not self.adaptive:
            return self.interval_s
        congested = (report.fraction_lost >= LOSS_THRESHOLD
                     or report.jitter_s >= JITTER_THRESHOLD_S)
        if congested:
            nxt = max(self.min_interval_s, self.current_interval_s / 2.0)
        else:
            nxt = min(MAX_INTERVAL_S, self.current_interval_s * 1.5)
        return nxt

    def build_report(self) -> RtcpReceiverReport:
        fraction, _received = self.receiver.snapshot_interval()
        return RtcpReceiverReport(
            stream_id=self.receiver.stream_id,
            fraction_lost=fraction,
            jitter_s=self.receiver.jitter_s,
            mean_delay_s=self.receiver.stats.mean_delay_s,
        )

    def _congested_now(self) -> bool:
        """Cheap congestion peek between reports (adaptive mode)."""
        return (self.receiver.peek_interval_loss() >= LOSS_THRESHOLD
                or self.receiver.jitter_s >= JITTER_THRESHOLD_S)

    def _send_report(self) -> None:
        report = self.build_report()
        self.network.send(
            Packet(
                src=self.node_id,
                dst=self.dst,
                size_bytes=RTCP_RR_BYTES,
                protocol="RTCP",
                flow_id=f"rtcp:{self.receiver.stream_id}",
                dst_port=self.dst_port,
                payload=report,
                session=self.receiver.session,
            )
        )
        self.reports_sent += 1
        self.current_interval_s = self._next_interval(report)
        if self.sim._tracing:
            self.sim._tracer.emit(self.sim.now, "rtcp.report",
                                  self.receiver.stream_id,
                                  session=self.receiver.session,
                                  fraction_lost=report.fraction_lost,
                                  jitter_s=report.jitter_s,
                                  mean_delay_s=report.mean_delay_s,
                                  interval_s=self.current_interval_s)

    def _run(self):
        if not self.adaptive:
            while not self._stopped:
                yield self.sim.timeout(self.interval_s)
                if self._stopped:
                    break
                self._send_report()
            return
        # Adaptive: poll at the fine granularity; send when the
        # calculated interval elapses — or *early* when congestion is
        # first observed (the event the server needs to hear about).
        elapsed = 0.0
        while not self._stopped:
            yield self.sim.timeout(self.min_interval_s)
            if self._stopped:
                break
            elapsed += self.min_interval_s
            early = self._congested_now() and elapsed >= self.min_interval_s
            if elapsed + 1e-12 >= self.current_interval_s or early:
                if early:
                    self.current_interval_s = self.min_interval_s
                self._send_report()
                elapsed = 0.0


class RtcpSink:
    """Server-side RTCP endpoint feeding the QoS manager."""

    def __init__(
        self,
        network: Network,
        node_id: str,
        port: int,
        on_report: Callable[[RtcpReceiverReport], None] | None = None,
    ) -> None:
        self.network = network
        self.node_id = node_id
        self.port = port
        self.on_report = on_report
        self.reports_received: list[RtcpReceiverReport] = []
        network.node(node_id).bind(port, self._on_packet)

    def close(self) -> None:
        self.network.node(self.node_id).unbind(self.port)

    def _on_packet(self, pkt: Packet) -> None:
        report = pkt.payload
        if not isinstance(report, RtcpReceiverReport):
            return
        self.reports_received.append(report)
        sim = self.network.sim
        if sim._tracing:
            sim._tracer.emit(sim.now, "rtcp.recv", report.stream_id,
                             node=self.node_id, session=pkt.session,
                             fraction_lost=report.fraction_lost,
                             jitter_s=report.jitter_s)
        if self.on_report is not None:
            self.on_report(report)
