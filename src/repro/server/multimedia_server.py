"""The multimedia server (§2, §4).

Holds the multimedia database (presentation scenarios + topics),
performs authentication/subscription against the service-wide account
registry, runs admission control, computes flow scenarios and
activates the media servers attached to it. The application protocol
(connect / request / suspend / search — Figure 4) is driven by
:mod:`repro.service.session`; this class is the server-side engine it
calls into.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.des import Simulator
from repro.media.encodings import CodecRegistry
from repro.media.types import MediaType
from repro.model.scenario import PresentationScenario
from repro.model.sync import build_playout_schedule, check_bandwidth
from repro.server.accounts import AccountRegistry, UserAccount
from repro.server.admission import (
    AdmissionController,
    AdmissionRequest,
    AdmissionResult,
)
from repro.server.database import MultimediaDatabase, StoredDocument
from repro.server.flow_scheduler import FLOW_LEAD_S, FlowScenario, FlowScheduler
from repro.server.media_server import MediaServer
from repro.server.qos_manager import GradingPolicy, ServerQoSManager

__all__ = ["MultimediaServer", "ServedSession"]


@dataclass(slots=True)
class ServedSession:
    """Server-side state of one admitted client session."""

    session_id: str
    user: UserAccount
    #: admitted with a floor: a document may be negotiated down (§4)
    negotiable: bool
    qos_manager: ServerQoSManager
    active_document: str | None = None
    flow: FlowScenario | None = None
    started_at: float = 0.0
    #: granted/charged bandwidth (< 1 when admission negotiated the
    #: session down to a lower quality, §4)
    grant_ratio: float = 1.0


class MultimediaServer:
    """One service server: scenarios, accounts, admission, flows."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        node_id: str,
        database: MultimediaDatabase,
        accounts: AccountRegistry,
        codecs: CodecRegistry,
        media_servers: dict[str, MediaServer],
        admission: AdmissionController | None = None,
        grading_policy: GradingPolicy | None = None,
        description: str = "",
    ) -> None:
        self.sim = sim
        self.name = name
        self.node_id = node_id
        self.database = database
        self.accounts = accounts
        self.codecs = codecs
        self.media_servers = dict(media_servers)
        self.admission = admission if admission is not None \
            else AdmissionController(capacity_bps=100e6)
        self.grading_policy = grading_policy
        self.description = description
        self.flow_scheduler = FlowScheduler(codecs)
        self.sessions: dict[str, ServedSession] = {}
        #: other servers of the service, for query forwarding (§6.2.2)
        self.peers: dict[str, "MultimediaServer"] = {}
        #: media-server name -> standby replicas, in failover preference
        #: order (first healthy one wins)
        self.replicas: dict[str, list[MediaServer]] = {}
        #: session_id -> live server-side protocol handler, registered
        #: by ServerSessionHandler so recovery can notify clients
        self.session_handlers: dict[str, object] = {}
        #: client node -> region name, wired by the engine when the
        #: topology is region-aware; drives edge-replica placement
        self.region_resolver = None
        #: shared-flow delivery batching, handed to every media server
        #: of this server when it is built (None = per-session flows)
        self.shared_flows = None

    # -- service topology -------------------------------------------------
    def add_peer(self, server: "MultimediaServer") -> None:
        if server.name == self.name:
            raise ValueError("a server cannot peer with itself")
        self.peers[server.name] = server

    def media_server(self, name: str) -> MediaServer:
        try:
            return self.media_servers[name]
        except KeyError:
            raise KeyError(
                f"server {self.name!r} has no media server {name!r}"
            ) from None

    def add_replica(self, primary_name: str, replica: MediaServer) -> None:
        """Register a standby media server for ``primary_name``.

        The replica shares the primary's store contents (same catalog),
        so it can resume any of the primary's streams after a crash.
        """
        self.media_server(primary_name)  # validate the primary exists
        self.replicas.setdefault(primary_name, []).append(replica)

    def all_media_servers(self) -> list[MediaServer]:
        """Primaries followed by replicas, in stable order."""
        servers = list(self.media_servers.values())
        for name in self.media_servers:
            servers.extend(self.replicas.get(name, []))
        return servers

    def healthy_media_server(
        self, name: str, client_node: str | None = None
    ) -> MediaServer | None:
        """The serving media server for ``name``, or None.

        This is the indirection every serving path goes through, both
        for placement and under faults. Candidate order:

        * without region information (no resolver, or no
          ``client_node``): the primary, then its standbys — the
          classic failover preference;
        * with a region-aware topology: the client's *regional
          replica* first (sessions land on their region's edge), then
          the primary (origin) as the failover target, then the
          remaining replicas.

        The first healthy candidate wins; None means nobody can serve.
        """
        primary = self.media_servers.get(name)
        standbys = self.replicas.get(name, [])
        candidates: list[MediaServer] = (
            [primary] if primary is not None else []
        ) + list(standbys)
        if self.region_resolver is not None and client_node is not None:
            region = self.region_resolver(client_node)
            if region is not None:
                regional = [ms for ms in standbys if ms.region == region]
                rest = [ms for ms in candidates if ms not in regional]
                candidates = regional + rest
        for ms in candidates:
            if not ms.failed:
                return ms
        return None

    # -- connection admission (§4) -------------------------------------------
    def connect(
        self,
        session_id: str,
        user: UserAccount,
        required_bw_bps: float,
        min_bw_bps: float | None = None,
    ) -> tuple[AdmissionResult, ServedSession | None]:
        result = self.admission.decide(
            AdmissionRequest(
                session_id=session_id,
                user_id=user.user_id,
                contract=user.contract,
                required_bw_bps=required_bw_bps,
                min_bw_bps=min_bw_bps,
            )
        )
        if self.sim._tracing:
            kind = ("admission.accept" if result.admitted
                    else "admission.block")
            self.sim._tracer.emit(
                self.sim.now, kind, self.name, session=session_id,
                contract=user.contract.name, required_bps=required_bw_bps,
                reserved_bps=result.reserved_bw_bps,
            )
        if not result.admitted:
            return result, None
        session = ServedSession(
            session_id=session_id,
            user=user,
            negotiable=min_bw_bps is not None,
            qos_manager=ServerQoSManager(self.sim, self.grading_policy,
                                         session_id=session_id),
            started_at=self.sim.now,
            grant_ratio=result.grant_ratio,
        )
        self.sessions[session_id] = session
        user.log("login", self.sim.now, self.name)
        return result, session

    def disconnect(self, session_id: str) -> float:
        """Close a session; returns the pricing charge."""
        session = self.sessions.pop(session_id, None)
        if session is None:
            return 0.0
        self.admission.release(session_id)
        for ms in self.all_media_servers():
            ms.stop_session(session_id)
        minutes = (self.sim.now - session.started_at) / 60.0
        charge = self.accounts.charge_session(session.user.user_id, minutes)
        session.user.log("logout", self.sim.now, self.name)
        return charge

    # -- document service ---------------------------------------------------------
    def topics(self) -> list[str]:
        return self.database.topics()

    def list_documents(self) -> list[str]:
        return self.database.names()

    def fetch_document(self, session_id: str, name: str) -> StoredDocument:
        """Retrieve ``name``, re-stating the session's demand as the
        document's charge (§4), the linter's :func:`check_bandwidth`.
        A refusal raises :class:`PermissionError` with the lint finding
        and leaves the session its grant."""
        session = self.sessions.get(session_id)
        if session is None:
            raise PermissionError(f"no admitted session {session_id!r}")
        stored = self.database.get(name)
        verdict = check_bandwidth(build_playout_schedule(stored.document),
                                  None, self.codecs)
        user = session.user
        result = self.admission.restate(
            session_id, user.contract, verdict.peak_bps,
            verdict.degraded_peak_bps if session.negotiable else None)
        if not result.admitted:
            headroom = self.admission.headroom_bps(session_id, user.contract)
            raise PermissionError(
                replace(verdict, capacity_bps=headroom).finding())
        session.grant_ratio = result.grant_ratio
        session.active_document = name
        user.log("retrieve", self.sim.now, name)
        return stored

    def plan_flows(self, session_id: str, name: str,
                   lead_s: float = FLOW_LEAD_S) -> FlowScenario:
        """Compute the flow scenario for a requested document.

        A negotiated (partially admitted) session starts its streams
        at a grade whose rate fits the granted bandwidth.
        """
        session = self.sessions.get(session_id)
        if session is None:
            raise PermissionError(f"no admitted session {session_id!r}")
        stored = self.database.get(name)
        scenario = PresentationScenario.from_document(stored.document)
        initial_grade = 0
        if session.grant_ratio < 1.0:
            video = self.codecs.default_for(MediaType.VIDEO)
            initial_grade = FlowScheduler.grade_for_ratio(
                video, session.grant_ratio
            )
        flow = self.flow_scheduler.compute(
            scenario, lead_s=lead_s, prefs=session.user.qos,
            initial_grade=initial_grade,
        )
        session.flow = flow
        if self.sim._tracing:
            self.sim._tracer.emit(
                self.sim.now, "flow.plan", name, session=session_id,
                node=self.node_id, flows=len(flow.flows),
                initial_grade=initial_grade,
            )
            for item in flow.flows:
                self.sim._tracer.emit(
                    self.sim.now, "flow.schedule", item.stream_id,
                    session=session_id,
                    media=item.media_type.name.lower(),
                    send_offset_s=item.send_offset_s,
                    grade=item.initial_grade,
                )
        return flow

    def locate_document(self, name: str) -> str | None:
        """Which server of the service stores ``name``?

        "For every associated document, the server where this
        document is stored is specified" (§5): the contacted server
        resolves locations across its peers so the client can be
        redirected (and switch connections) when the document lives
        elsewhere.
        """
        if name in self.database:
            return self.name
        for peer in self.peers.values():
            if name in peer.database:
                return peer.name
        return None

    # -- distributed search (§6.2.2) --------------------------------------------
    def search(self, token: str) -> dict[str, list[str]]:
        """Search this server and every peer.

        Returns {server_name: [matching document names]}; only servers
        with matches appear — "only the lessons which contain the item
        of interest and the server location are transmitted".
        """
        results: dict[str, list[str]] = {}
        own = self.database.search(token)
        if own:
            results[self.name] = own
        for peer in self.peers.values():
            theirs = peer.database.search(token)
            if theirs:
                results[peer.name] = theirs
        return results
