"""Client QoS Manager.

"Incoming data packets of a specific stream, besides other
information, carry a timestamping indication which is used by the
Client QoS Manager to carry out conclusions about the connection's
condition, e.g. the packet delay, the delay jitter. Based on this
information, the client QoS manager, periodically or in specifically
calculated intervals, sends feedback reports to the sending side"
(§4).

One manager aggregates all of a presentation's RTP receivers and owns
their RTCP reporters; each receiver's ``stats`` and ``jitter_s`` are
the connection's condition.
"""

from __future__ import annotations

from repro.net.topology import Network
from repro.rtp.rtcp import RtcpReporter
from repro.rtp.session import RtpReceiver

__all__ = ["ClientQoSManager"]


class ClientQoSManager:
    """Aggregates receiver statistics and runs the feedback loop."""

    def __init__(self, network: Network, node_id: str,
                 report_interval_s: float = 1.0,
                 adaptive: bool = False) -> None:
        if report_interval_s <= 0:
            raise ValueError("report_interval_s must be positive")
        self.network = network
        self.node_id = node_id
        self.report_interval_s = report_interval_s
        self.adaptive = adaptive
        self._receivers: dict[str, RtpReceiver] = {}
        self._reporters: dict[str, RtcpReporter] = {}
        #: report source ports drawn from the node's own allocator —
        #: returned in :meth:`stop` (pairing the allocate below)
        self._owned_ports: list[int] = []
        self._stopped = False

    def register_stream(
        self,
        receiver: RtpReceiver,
        rtcp_port: int | None,
        server_node: str,
        server_rtcp_port: int,
    ) -> RtcpReporter:
        """Attach a stream and start its periodic receiver reports.

        ``rtcp_port=None`` draws the report source port from this
        client host's own allocator.
        """
        stream_id = receiver.stream_id
        if stream_id in self._receivers:
            raise ValueError(f"stream {stream_id!r} already registered")
        if rtcp_port is None:
            rtcp_port = self.network.node(self.node_id).ports.allocate("media")
            self._owned_ports.append(rtcp_port)
        self._receivers[stream_id] = receiver
        sim = self.network.sim
        if sim._tracing:
            sim._tracer.emit(sim.now, "qos.stream", stream_id,
                             node=self.node_id, rtcp_port=rtcp_port,
                             interval_s=self.report_interval_s,
                             session=receiver.session)
        reporter = RtcpReporter(
            self.network, receiver, self.node_id, rtcp_port,
            server_node, server_rtcp_port,
            interval_s=self.report_interval_s,
            adaptive=self.adaptive,
            min_interval_s=min(0.25, self.report_interval_s),
        )
        self._reporters[stream_id] = reporter
        return reporter

    def stop(self) -> None:
        """Stop the feedback loop and return owned report ports.

        Idempotent: the orchestrator stops the loop at presentation
        end and the composition's ``close()`` calls it again during
        session teardown. Reports flow client → server only, so
        unbinding the source sockets here cannot strand in-flight
        traffic.
        """
        if self._stopped:
            return
        self._stopped = True
        owned = set(self._owned_ports)
        for stream_id in sorted(self._reporters):
            reporter = self._reporters[stream_id]
            reporter.stop()
            # Only tear down sockets on ports this manager allocated;
            # externally-chosen report ports stay the caller's.
            if reporter.socket.port in owned:
                reporter.socket.close()
        ports = self.network.node(self.node_id).ports
        for port in self._owned_ports:
            ports.release(port)
        self._owned_ports.clear()

    # -- queries -----------------------------------------------------------
    def streams(self) -> list[str]:
        return sorted(self._receivers)

    def reports_sent(self) -> int:
        return sum(r.reports_sent for r in self._reporters.values())
