"""Client and server session logic over the control channel (§5).

:class:`ServerSessionHandler` is the server half: it authenticates,
admits, serves scenarios, activates media servers per the flow
scenario, and manages the suspend-connection grace interval for
cross-server navigation. :class:`ClientSession` is the browser half:
a set of coroutine methods (``yield from`` them inside a simulation
process) that drive the Figure 4 state machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.des import Simulator
from repro.media.types import MediaType
from repro.server.accounts import AuthenticationError, SubscriptionForm
from repro.server.admission import TICKET_BPS
from repro.server.flow_scheduler import FLOW_LEAD_S
from repro.server.multimedia_server import MultimediaServer
from repro.service.messages import ControlEndpoint, ControlMessage
from repro.service.states import SessionEvent as E
from repro.service.states import SessionState, SessionStateMachine

if TYPE_CHECKING:  # pragma: no cover
    from repro.rtp.rtcp import RtcpSink

__all__ = ["ServerSessionHandler", "ClientSession"]


class ServerSessionHandler:
    """Server-side protocol handler for one client connection."""

    def __init__(
        self,
        server: MultimediaServer,
        endpoint: ControlEndpoint,
        session_id: str,
        client_node: str,
        suspend_grace_s: float = 30.0,
    ) -> None:
        self.server = server
        self.sim: Simulator = server.sim
        self.endpoint = endpoint
        self.session_id = session_id
        self.client_node = client_node
        self.suspend_grace_s = suspend_grace_s
        self.session = None  # ServedSession after admission
        self.rtcp_sink: RtcpSink | None = None
        self._rtcp_port: int | None = None
        self._suspend_token = 0
        self.suspended = False
        # Retry support: clients may resend a request whose reply was
        # lost, so replies must be reproducible without redoing side
        # effects (re-admitting, re-starting streams, double-charging).
        self._connect_ok_body: dict | None = None
        self._ready_served: str | None = None
        self._bye_charge: float | None = None
        endpoint.on_message = self._on_message
        # Let the server reach this handler for recovery notifications.
        server.session_handlers[session_id] = self

    def _next_port(self) -> int:
        """An RTCP sink port from the server host's own allocator.

        Per-node (not process-global), so two engines in one process —
        and several handlers sharing one host — stay deterministic and
        conflict-free.
        """
        network = _network_of(self.server)
        return network.node(self.server.node_id).ports.allocate("rtcp")

    # -- dispatch ----------------------------------------------------------
    def _on_message(self, msg: ControlMessage) -> None:
        handler = getattr(self, f"_handle_{msg.msg_type.replace('-', '_')}", None)
        if handler is None:
            self.endpoint.reply(msg, "protocol-error",
                                {"reason": f"unknown message {msg.msg_type!r}"})
            return
        handler(msg)

    # -- connection establishment ------------------------------------------
    def _admit(self, msg: ControlMessage, user) -> None:
        result, session = self.server.connect(
            self.session_id, user,
            msg.body.get("required_bw_bps", TICKET_BPS),
            min_bw_bps=msg.body.get("min_bw_bps"),
        )
        if not result.admitted:
            self.endpoint.reply(msg, "connect-reject", {"reason": result.reason})
            return
        self.session = session
        self._connect_ok_body = {
            "server": self.server.name,
            "description": self.server.description,
            "topics": self.server.topics(),
            "documents": self.server.list_documents(),
            "granted_bw_bps": result.reserved_bw_bps,
            "negotiated": result.negotiated,
        }
        self.endpoint.reply(msg, "connect-ok", self._connect_ok_body)

    def _handle_connect(self, msg: ControlMessage) -> None:
        if self.session is not None and self._connect_ok_body is not None:
            # Duplicate (client retry after a lost reply): re-reply
            # without re-admitting.
            self.endpoint.reply(msg, "connect-ok", self._connect_ok_body)
            return
        user_id = msg.body.get("user_id", "")
        try:
            user = self.server.accounts.authenticate(
                user_id, msg.body.get("secret", "")
            )
        except AuthenticationError as exc:
            if user_id not in self.server.accounts:
                self.endpoint.reply(msg, "subscribe-required",
                                    {"reason": str(exc)})
            else:
                self.endpoint.reply(msg, "connect-reject", {"reason": str(exc)})
            return
        self._admit(msg, user)

    def _handle_subscribe(self, msg: ControlMessage) -> None:
        if self.session is not None and self._connect_ok_body is not None:
            self.endpoint.reply(msg, "connect-ok", self._connect_ok_body)
            return
        body = msg.body
        try:
            form = SubscriptionForm(
                real_name=body.get("real_name", ""),
                address=body.get("address", ""),
                email=body.get("email", ""),
                telephone=body.get("telephone", ""),
            )
            user = self.server.accounts.subscribe(
                body.get("user_id", ""), form, body.get("secret", ""),
                contract=body.get("contract", "basic"),
            )
        except (ValueError, KeyError) as exc:
            self.endpoint.reply(msg, "connect-reject", {"reason": str(exc)})
            return
        self._admit(msg, user)

    # -- document service -------------------------------------------------------
    def _handle_request_doc(self, msg: ControlMessage) -> None:
        if self.session is None:
            self.endpoint.reply(msg, "request-reject",
                                {"reason": "not connected"})
            return
        name = msg.body.get("name", "")
        # A fresh document request re-arms `ready` (reload included);
        # only an unchanged ready for the same served document is
        # treated as a retry duplicate.
        self._ready_served = None
        try:
            stored = self.server.fetch_document(self.session_id, name)
        except KeyError as exc:
            # Not here — maybe a peer stores it: tell the client where
            # to go so it can suspend this connection and switch (§5).
            location = self.server.locate_document(name)
            if location is not None and location != self.server.name:
                self.endpoint.reply(msg, "redirect",
                                    {"name": name, "server": location})
                return
            self.endpoint.reply(msg, "request-reject", {"reason": str(exc)})
            return
        except PermissionError as exc:  # refused: it does not fit (§4)
            self.endpoint.reply(msg, "request-reject", {"reason": str(exc)})
            return
        # The scenario is the markup text file; its wire size is the
        # real document size.
        self.endpoint.reply(
            msg, "scenario", {"name": name, "markup": stored.markup},
            size_bytes=stored.size_bytes + 200,
        )

    def _handle_ready(self, msg: ControlMessage) -> None:
        """Client allocated its ports; activate the media servers."""
        if self.session is None or self.session.active_document is None:
            self.endpoint.reply(msg, "request-reject",
                                {"reason": "no active document"})
            return
        name = self.session.active_document
        if self._ready_served == name:
            # Duplicate ready (retry): streams are already running.
            self.endpoint.reply(msg, "streams-started",
                                {"rtcp_port": self._rtcp_port})
            return
        flow = self.server.plan_flows(
            self.session_id, name, lead_s=msg.body.get("lead_s", FLOW_LEAD_S)
        )
        rtp_ports: dict[str, int] = msg.body.get("rtp_ports", {})
        discrete_ports: dict[str, int] = msg.body.get("discrete_ports", {})
        # Resolve every media server up front so a crashed one (with no
        # healthy replica) rejects the request instead of leaving the
        # presentation half-activated.
        needed = {spec.server for spec in flow.continuous()
                  if spec.stream_id in rtp_ports}
        needed |= {spec.server for spec in flow.discrete()
                   if spec.stream_id in discrete_ports}
        targets = {}
        for ms_name in sorted(needed):
            ms = self.server.healthy_media_server(
                ms_name, client_node=self.client_node
            )
            if ms is None:
                self.endpoint.reply(msg, "request-reject",
                                    {"reason": "media-unavailable",
                                     "server": ms_name})
                return
            targets[ms_name] = ms
        if self._rtcp_port is None:
            self._rtcp_port = self._next_port()
            from repro.rtp.rtcp import RtcpSink  # local import avoids cycle

            self.rtcp_sink = RtcpSink(
                _network_of(self.server), self.server.node_id, self._rtcp_port,
                on_report=self.session.qos_manager.on_report,
            )
        prefs = self.session.user.qos
        ssrc = 0
        for spec in flow.continuous():
            if spec.stream_id not in rtp_ports:
                continue
            ms = targets[spec.server]
            ssrc += 1
            floor = (
                prefs.video_floor_grade
                if spec.media_type is MediaType.VIDEO
                else prefs.audio_floor_grade
            )
            duration_s = (spec.duration_s if spec.duration_s is not None
                          else 3600.0)
            # One call whatever the delivery scheme: with shared flows
            # the media server batches this viewer onto the object's
            # pump, and everything client-side is unchanged.
            _pump, converter = ms.start_stream(
                self.session_id, spec.path, stream_id=spec.stream_id,
                client_node=self.client_node,
                client_port=rtp_ports[spec.stream_id],
                duration_s=duration_s,
                send_offset_s=spec.send_offset_s,
                initial_grade=spec.initial_grade,
                floor_grade=floor,
                allow_suspend=prefs.allow_suspend,
                ssrc=ssrc,
            )
            # A later document may reuse element ids: replace any
            # stale registration from an already-finished stream.
            self.session.qos_manager.unregister_stream(spec.stream_id)
            self.session.qos_manager.register_stream(
                spec.stream_id, spec.media_type, converter
            )
        for spec in flow.discrete():
            if spec.stream_id not in discrete_ports:
                continue
            ms = targets[spec.server]
            ms.send_discrete(
                spec.stream_id, spec.path, self.client_node,
                discrete_ports[spec.stream_id],
                flow_id=f"{self.session_id}:{spec.stream_id}",
            )
        self._ready_served = name
        self.endpoint.reply(msg, "streams-started",
                            {"rtcp_port": self._rtcp_port})

    # -- interactive operations ----------------------------------------------
    def _pause_all(self) -> None:
        for ms in self.server.all_media_servers():
            ms.pause_session(self.session_id)

    def _resume_all(self) -> None:
        for ms in self.server.all_media_servers():
            ms.resume_session(self.session_id)

    def _stop_all_streams(self) -> None:
        for ms in self.server.all_media_servers():
            ms.stop_session(self.session_id)
        if self.session is not None:
            for sid in list(self.session.qos_manager.streams()):
                self.session.qos_manager.unregister_stream(sid)

    def _handle_pause(self, msg: ControlMessage) -> None:
        self._pause_all()
        self.endpoint.reply(msg, "paused")

    def _handle_resume(self, msg: ControlMessage) -> None:
        self._resume_all()
        self.endpoint.reply(msg, "resumed")

    def _handle_stop_streams(self, msg: ControlMessage) -> None:
        self._stop_all_streams()
        self.endpoint.reply(msg, "streams-stopped")

    def _handle_disable_stream(self, msg: ControlMessage) -> None:
        """§5: the user disabled one media of the presentation — stop
        transmitting that stream."""
        stream_id = msg.body.get("stream_id", "")
        found = False
        for ms in self.server.all_media_servers():
            if (self.session_id, stream_id) in ms.streams:
                ms.stop_stream(self.session_id, stream_id)
                found = True
        if self.session is not None:
            self.session.qos_manager.unregister_stream(stream_id)
        self.endpoint.reply(msg, "stream-disabled",
                            {"stream_id": stream_id, "was_active": found})

    def _handle_search(self, msg: ControlMessage) -> None:
        results = self.server.search(msg.body.get("token", ""))
        self.endpoint.reply(msg, "search-results", {"results": results})

    # -- suspend / cross-server navigation -------------------------------------
    def _handle_suspend(self, msg: ControlMessage) -> None:
        """Cross-server navigation: keep the session alive for the
        grace interval in case the user returns (§5)."""
        self._stop_all_streams()
        self.suspended = True
        self._suspend_token += 1
        token = self._suspend_token
        self.sim.call_later(self.suspend_grace_s,
                            self._suspend_expire, token)
        self.endpoint.reply(msg, "suspended", {"grace_s": self.suspend_grace_s})

    def _release_rtcp(self) -> None:
        """Close the feedback sink and return its port to the node."""
        if self.rtcp_sink is not None:
            self.rtcp_sink.close()
            self.rtcp_sink = None
        if self._rtcp_port is not None:
            network = _network_of(self.server)
            network.node(self.server.node_id).ports.release(
                self._rtcp_port, "rtcp"
            )
            self._rtcp_port = None
        self._ready_served = None

    def _suspend_expire(self, token: int) -> None:
        if token != self._suspend_token or not self.suspended:
            return
        self.suspended = False
        self.server.disconnect(self.session_id)
        self.session = None
        self._release_rtcp()
        self.server.session_handlers.pop(self.session_id, None)
        # "When this interval is passed the connection closes and the
        # attached client is informed about the event."
        self.endpoint.send("suspend-expired", {})

    def _handle_resume_conn(self, msg: ControlMessage) -> None:
        if self.suspended and self.session is not None:
            self.suspended = False
            self._suspend_token += 1
            self.endpoint.reply(msg, "resumed-conn", {})
        else:
            self.endpoint.reply(msg, "expired", {})

    def _handle_disconnect(self, msg: ControlMessage) -> None:
        if self._bye_charge is not None:
            # Duplicate disconnect (retry): the session is already torn
            # down and charged; just repeat the answer.
            self.endpoint.reply(msg, "bye", {"charge": self._bye_charge})
            return
        self._stop_all_streams()
        charge = self.server.disconnect(self.session_id)
        self.session = None
        self._release_rtcp()
        self.server.session_handlers.pop(self.session_id, None)
        self._bye_charge = charge
        self.endpoint.reply(msg, "bye", {"charge": charge})

    # -- recovery notifications (watchdog -> client) ---------------------------
    def notify_stream_fault(self, stream_ids: list[str], server: str) -> None:
        """Tell the client its delivery path failed (detection)."""
        self.endpoint.send("stream-fault",
                           {"streams": sorted(stream_ids), "server": server})

    def notify_stream_recovered(self, stream_id: str, server: str,
                                t_recover_s: float) -> None:
        """Tell the client one stream was failed over."""
        self.endpoint.send("stream-recovered",
                           {"stream_id": stream_id, "server": server,
                            "t_recover_s": t_recover_s})


def _network_of(server: MultimediaServer):
    """The network any of the server's media servers is attached to."""
    for ms in server.media_servers.values():
        return ms.network
    raise RuntimeError(f"server {server.name!r} has no media servers")


class ClientSession:
    """Browser-side protocol driver (coroutine methods)."""

    def __init__(self, sim: Simulator, endpoint: ControlEndpoint,
                 user_id: str, secret: str) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.user_id = user_id
        self.secret = secret
        self.fsm = SessionStateMachine()
        self.topics: list[str] = []
        self.documents: list[str] = []
        self.last_markup: str | None = None
        self.suspend_expired = False
        #: retry policy for control RPCs (duck-typed, see
        #: repro.faults.control.RetryPolicy); None = wait forever, the
        #: pre-fault behaviour
        self.retry = None
        #: RNG for retry jitter (required when ``retry`` is set)
        self.retry_rng = None
        #: control requests resent after a timeout
        self.retries = 0
        #: streams restored by server-side failover
        self.recoveries = 0
        #: stream ids currently known faulted (drives the RECOVERING
        #: state: entered on first fault, left when the set empties)
        self._faulted: set[str] = set()
        endpoint.on_message = self._on_unsolicited

    def _on_unsolicited(self, msg: ControlMessage) -> None:
        if msg.msg_type == "suspend-expired":
            self.suspend_expired = True
            if self.fsm.state is SessionState.SUSPENDING:
                self.fsm.fire(E.SUSPEND_EXPIRED, self.sim.now)
        elif msg.msg_type == "stream-fault":
            self._faulted.update(msg.body.get("streams", []))
            if self.fsm.can_fire(E.STREAM_FAULT):
                self.fsm.fire(E.STREAM_FAULT, self.sim.now)
        elif msg.msg_type == "stream-recovered":
            self._faulted.discard(msg.body.get("stream_id", ""))
            self.recoveries += 1
            if not self._faulted and self.fsm.can_fire(E.STREAM_RECOVERED):
                self.fsm.fire(E.STREAM_RECOVERED, self.sim.now)

    # -- control RPC with optional retry --------------------------------------
    def _rpc(self, msg_type: str, body: dict | None = None) \
            -> Generator[Any, Any, ControlMessage]:
        """Send a request and wait for its reply.

        With no retry policy this waits forever (the transport
        retransmits, so on a merely slow path the reply eventually
        arrives). With a policy, each attempt races a timeout; lost
        messages (endpoint-level drops, crashed peers) are retried with
        exponential backoff and deterministic jitter, and exhaustion
        returns a synthetic ``rpc-timeout`` message so callers degrade
        instead of hanging.
        """
        if self.retry is None:
            _, ev = self.endpoint.request(msg_type, body)
            resp: ControlMessage = yield ev
            return resp
        timeout_s = self.retry.timeout_s
        for attempt in range(self.retry.max_attempts):
            _, ev = self.endpoint.request(msg_type, body)
            yield self.sim.any_of([ev, self.sim.timeout(timeout_s)])
            if ev.triggered:
                return ev.value
            if self.sim._tracing:
                self.sim._tracer.emit(self.sim.now, "ctl.retry", msg_type,
                                      attempt=attempt + 1,
                                      timeout_s=timeout_s)
            if attempt + 1 < self.retry.max_attempts:
                self.retries += 1
                timeout_s = self.retry.next_timeout(timeout_s, self.retry_rng)
        return ControlMessage(msg_type="rpc-timeout",
                              body={"request": msg_type})

    # -- coroutines (use with `yield from`) ---------------------------------
    def connect(self, required_bw_bps: float = TICKET_BPS,
                min_bw_bps: float | None = None) \
            -> Generator[Any, Any, ControlMessage]:
        """Connect; ``min_bw_bps`` enables QoS negotiation — the
        lowest-quality bandwidth the user accepts instead of a
        rejection (§4)."""
        self.fsm.fire(E.CONNECT, self.sim.now)
        body = {"user_id": self.user_id, "secret": self.secret,
                "required_bw_bps": required_bw_bps}
        if min_bw_bps is not None:
            body["min_bw_bps"] = min_bw_bps
        resp: ControlMessage = yield from self._rpc("connect", body)
        if resp.msg_type == "connect-ok":
            self.fsm.fire(E.AUTH_OK, self.sim.now)
            self.topics = resp.body["topics"]
            self.documents = resp.body["documents"]
        elif resp.msg_type == "subscribe-required":
            self.fsm.fire(E.NOT_MEMBER, self.sim.now)
        else:
            self.fsm.fire(E.AUTH_FAIL, self.sim.now)
        return resp

    def subscribe(self, form: SubscriptionForm, contract: str = "basic",
                  required_bw_bps: float = TICKET_BPS,
                  min_bw_bps: float | None = None) \
            -> Generator[Any, Any, ControlMessage]:
        body = {
            "user_id": self.user_id, "secret": self.secret,
            "real_name": form.real_name, "address": form.address,
            "email": form.email, "telephone": form.telephone,
            "contract": contract, "required_bw_bps": required_bw_bps,
        }
        if min_bw_bps is not None:
            body["min_bw_bps"] = min_bw_bps
        resp: ControlMessage = yield from self._rpc("subscribe", body)
        if resp.msg_type == "connect-ok":
            self.fsm.fire(E.SUBSCRIBED, self.sim.now)
            self.topics = resp.body["topics"]
            self.documents = resp.body["documents"]
        else:
            self.fsm.fire(E.AUTH_FAIL, self.sim.now)
        return resp

    def request_document(self, name: str, via_link: bool = False) \
            -> Generator[Any, Any, ControlMessage]:
        """Request a document. ``via_link=True`` when the session is
        already in REQUESTING because a hyperlink (or reload) was just
        followed — the FSM edge was consumed by that action."""
        if not via_link:
            self.fsm.fire(E.REQUEST_DOCUMENT, self.sim.now)
        resp: ControlMessage = yield from self._rpc("request-doc",
                                                    {"name": name})
        if resp.msg_type == "scenario":
            self.fsm.fire(E.SCENARIO_RECEIVED, self.sim.now)
            self.last_markup = resp.body["markup"]
        else:
            # Both hard rejection and a cross-server redirect return
            # the session to browsing; on a redirect the caller uses
            # resp.body["server"] to open the new connection (§5).
            self.fsm.fire(E.REQUEST_REJECTED, self.sim.now)
        return resp

    def send_ready(self, rtp_ports: dict[str, int],
                   discrete_ports: dict[str, int]
                   ) -> Generator[Any, Any, ControlMessage]:
        resp: ControlMessage = yield from self._rpc(
            "ready",
            {"rtp_ports": rtp_ports, "discrete_ports": discrete_ports,
             "lead_s": FLOW_LEAD_S},
        )
        return resp

    def pause(self) -> Generator[Any, Any, ControlMessage]:
        self.fsm.fire(E.PAUSE, self.sim.now)
        resp = yield from self._rpc("pause")
        return resp

    def resume(self) -> Generator[Any, Any, ControlMessage]:
        self.fsm.fire(E.RESUME, self.sim.now)
        resp = yield from self._rpc("resume")
        return resp

    def disable_stream(self, stream_id: str) \
            -> Generator[Any, Any, ControlMessage]:
        """Ask the server to stop transmitting one media stream (§5)."""
        resp = yield from self._rpc("disable-stream",
                                    {"stream_id": stream_id})
        return resp

    def search(self, token: str) -> Generator[Any, Any, dict[str, list[str]]]:
        resp: ControlMessage = yield from self._rpc("search", {"token": token})
        return resp.body.get("results", {})

    def end_presentation(self) -> None:
        self.fsm.fire(E.PRESENTATION_END, self.sim.now)

    def reload(self) -> None:
        self.fsm.fire(E.RELOAD, self.sim.now)

    def follow_link_local(self) -> None:
        self.fsm.fire(E.FOLLOW_LINK_LOCAL, self.sim.now)

    def suspend_for_remote_link(self) -> Generator[Any, Any, ControlMessage]:
        self.fsm.fire(E.FOLLOW_LINK_REMOTE, self.sim.now)
        resp = yield from self._rpc("suspend")
        return resp

    def resume_connection(self) -> Generator[Any, Any, ControlMessage]:
        resp: ControlMessage = yield from self._rpc("resume-conn")
        if resp.msg_type == "resumed-conn":
            self.fsm.fire(E.RECONNECTED, self.sim.now)
        elif self.fsm.state is SessionState.SUSPENDING:
            self.fsm.fire(E.SUSPEND_EXPIRED, self.sim.now)
        return resp

    def stop_streams(self) -> Generator[Any, Any, ControlMessage]:
        resp = yield from self._rpc("stop-streams")
        return resp

    def disconnect(self) -> Generator[Any, Any, float]:
        resp: ControlMessage = yield from self._rpc("disconnect")
        self.fsm.fire(E.DISCONNECT, self.sim.now)
        return resp.body.get("charge", 0.0)
