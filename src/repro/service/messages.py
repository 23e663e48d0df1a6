"""Typed control messages over the reliable channel.

The application protocol (connect, request, pause, search, ...) rides
the "TCP" path of Figure 5. A :class:`ControlChannel` is a duplex
pair of go-back-N connections between a client node and a server
node; each side gets a :class:`ControlEndpoint` with ``send()`` and
an ``on_message`` callback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.des import Event, Simulator
from repro.net.channel import ReliableReceiver, ReliableSender
from repro.net.topology import Network

__all__ = ["ControlMessage", "ControlEndpoint", "ControlChannel"]

_BASE_MESSAGE_BYTES = 200


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """One application-protocol message."""

    msg_type: str
    body: dict[str, Any] = field(default_factory=dict)
    req_id: int = 0
    in_reply_to: int = 0

    def estimated_size(self) -> int:
        return _BASE_MESSAGE_BYTES + len(repr(self.body))


class ControlEndpoint:
    """One side of a control channel."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.on_message: Callable[[ControlMessage], None] | None = None
        self._sender: ReliableSender | None = None
        self._req_counter = itertools.count(1)
        self._pending: dict[int, Event] = {}
        self.sent: list[ControlMessage] = []
        self.received: list[ControlMessage] = []
        #: (arrival time, message) — the Figure 3 trace raw material
        self.received_log: list[tuple[float, ControlMessage]] = []
        #: optional fault-injection hook; duck-typed object with a
        #: ``decide(now) -> (verdict, delay_s)`` method where verdict is
        #: "pass", "drop", or "delay" (see repro.faults.control)
        self.fault = None
        self.closed = False
        #: messages that arrived after close() with no handler to take them
        self.late_messages = 0

    def close(self) -> None:
        """Detach the application handler.

        The reliable transport may still deliver queued or retransmitted
        messages after the session logic tears down; a closed endpoint
        logs them instead of invoking a stale handler.
        """
        self.closed = True
        self.on_message = None

    # wiring (done by ControlChannel)
    def _attach_sender(self, sender: ReliableSender) -> None:
        self._sender = sender

    # -- sending -----------------------------------------------------------
    def send(self, msg_type: str, body: dict[str, Any] | None = None,
             in_reply_to: int = 0, size_bytes: int | None = None) -> ControlMessage:
        """Fire-and-forget send (reliable, ordered)."""
        if self._sender is None:
            raise RuntimeError(f"endpoint {self.name!r} not attached")
        msg = ControlMessage(
            msg_type=msg_type, body=dict(body or {}),
            req_id=next(self._req_counter), in_reply_to=in_reply_to,
        )
        self._sender.send_message(
            size_bytes if size_bytes is not None else msg.estimated_size(),
            payload=msg,
        )
        self.sent.append(msg)
        return msg

    def request(self, msg_type: str, body: dict[str, Any] | None = None
                ) -> tuple[ControlMessage, Event]:
        """Send and return an event that triggers on the reply."""
        msg = self.send(msg_type, body)
        ev = self.sim.event()
        self._pending[msg.req_id] = ev
        return msg, ev

    def reply(self, to: ControlMessage, msg_type: str,
              body: dict[str, Any] | None = None,
              size_bytes: int | None = None) -> ControlMessage:
        return self.send(msg_type, body, in_reply_to=to.req_id,
                         size_bytes=size_bytes)

    # -- receiving -----------------------------------------------------------
    def _deliver(self, msg: ControlMessage) -> None:
        if self.fault is not None:
            verdict, delay_s = self.fault.decide(self.sim.now)
            if verdict == "drop":
                if self.sim._tracing:
                    self.sim._tracer.emit(self.sim.now, "fault.ctl_drop",
                                          self.name, msg_type=msg.msg_type,
                                          req_id=msg.req_id)
                return
            if verdict == "delay" and delay_s > 0:
                if self.sim._tracing:
                    self.sim._tracer.emit(self.sim.now, "fault.ctl_delay",
                                          self.name, msg_type=msg.msg_type,
                                          req_id=msg.req_id, delay=delay_s)
                self.sim.call_later(delay_s, self._dispatch, msg)
                return
        self._dispatch(msg)

    def _dispatch(self, msg: ControlMessage) -> None:
        self.received.append(msg)
        self.received_log.append((self.sim.now, msg))
        if msg.in_reply_to:
            ev = self._pending.pop(msg.in_reply_to, None)
            if ev is not None:
                ev.succeed(msg)
                return
        if msg.msg_type == "hb":
            # Heartbeats are acked at the endpoint so liveness probing
            # works regardless of what the application handler is doing.
            if not self.closed:
                self.reply(msg, "hb-ok")
            return
        if self.closed or self.on_message is None:
            self.late_messages += 1
            return
        self.on_message(msg)


class ControlChannel:
    """Duplex reliable control connection ``name`` between two nodes."""

    def __init__(
        self,
        network: Network,
        client_node: str,
        server_node: str,
        base_port: int,
        name: str,
    ) -> None:
        self.name = name
        sim = network.sim
        self.client = ControlEndpoint(sim, f"{self.name}:client")
        self.server = ControlEndpoint(sim, f"{self.name}:server")
        # Four ports: client data-in, client ack-in, server data-in,
        # server ack-in.
        p = base_port
        self._rx_server = ReliableReceiver(
            network, server_node, p,
            on_message=lambda data, size, flow: self.server._deliver(data),
        )
        self._tx_client = ReliableSender(
            network, client_node, p + 1, server_node, p,
            flow_id=f"{self.name}:c->s",
        )
        self._rx_client = ReliableReceiver(
            network, client_node, p + 2,
            on_message=lambda data, size, flow: self.client._deliver(data),
        )
        self._tx_server = ReliableSender(
            network, server_node, p + 3, client_node, p + 2,
            flow_id=f"{self.name}:s->c",
        )
        self.client._attach_sender(self._tx_client)
        self.server._attach_sender(self._tx_server)

    def close(self) -> None:
        self.client.close()
        self.server.close()
        for part in (self._tx_client, self._tx_server,
                     self._rx_client, self._rx_server):
            part.close()
