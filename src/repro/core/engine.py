"""Full-service composition: topology, servers, and client machinery.

Topology (the simulated "broadband network" of the paper):

    client ── access link ──┐
    client2 ── access link ──┼─ router ── backbone ── server hosts
        ...                  │      └───── cross-traffic sources

Each multimedia server host carries the multimedia server and its
media servers (the paper allows them to share a host); cross traffic
loads the router→client access links, the paths all media share.

The engine owns *construction*: one
:class:`~repro.net.service_topology.ServiceTopology` — the classic star,
or the star plus the regions passed as ``layers=`` (a tuple of
:class:`~repro.net.service_topology.RegionSpec`, e.g. ``cdn_stack()``) —
plus servers, documents, per-POP media replicas and (optionally) the
shared-flow delivery machinery. Session *orchestration* — scripted
runs, concurrent viewers, autoplay, multi-client populations — lives
in :class:`~repro.core.orchestrator.SessionOrchestrator`
(``engine.orchestrator``).
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.client.presentation import PresentationScheduler, StreamBinding
from repro.client.qos_manager import ClientQoSManager
from repro.des import Simulator
from repro.des.rng import RngRegistry
from repro.hml.parser import parse
from repro.media.encodings import CodecRegistry, default_registry
from repro.media.store import MediaStore
from repro.media.types import (
    ContinuousMediaObject,
    DiscreteMediaObject,
    MediaType,
)
from repro.model.scenario import PresentationScenario
from repro.net.channel import ReliableReceiver
from repro.net.impairments import GilbertElliottLoss
from repro.net.service_topology import ROUTER, ServiceTopology
from repro.net.topology import Network
from repro.net.traffic import OnOffTrafficSource, PoissonTrafficSource
from repro.rtp.session import RtpReceiver
from repro.core.config import EngineConfig
from repro.core.results import SessionResult, StreamResult
from repro.server.accounts import AccountRegistry
from repro.server.admission import AdmissionController
from repro.server.database import MultimediaDatabase
from repro.server.media_server import MediaServer
from repro.server.multimedia_server import MultimediaServer
from repro.service.messages import ControlChannel
from repro.service.session import ClientSession, ServerSessionHandler

__all__ = ["ServiceEngine", "ClientComposition"]

#: sizes of the synthetic discrete objects a document's images and
#: texts are stored as
IMAGE_BYTES = 40_000
TEXT_BYTES = 4_000


class ServiceEngine:
    """Builds the whole system and hands sessions to the orchestrator."""

    CLIENT = "client"
    ROUTER = ROUTER

    def __init__(self, config: EngineConfig | None = None,
                 tracer=None, layers=None) -> None:
        self.config = config if config is not None else EngineConfig()
        self.sim = Simulator()
        if tracer is not None:
            self.sim.set_tracer(tracer)
        self.rng = RngRegistry(seed=self.config.seed)
        self.codecs: CodecRegistry = default_registry()
        self.network = Network(self.sim)
        self.accounts = AccountRegistry()
        self.servers: dict[str, MultimediaServer] = {}
        #: per-engine session numbers (sess-N, its channel ctl-N): two
        #: engines in one process both start at 1, so runs replay alike.
        self._session_ids = itertools.count(1)
        self._traffic_nodes = 0
        self._population: list[str] = []
        self._orchestrator = None
        #: fault-injection subsystem (None until install_faults)
        self._faults = None
        self._watchdogs: dict[str, Any] = {}
        #: DES-clock telemetry (None until attach_timeseries)
        self._timeseries_sampler = None
        #: live (unclosed) client compositions, for buffer sampling
        self.compositions: list["ClientComposition"] = []
        self._build_backbone(layers or ())

    # -- topology -----------------------------------------------------------
    def _build_backbone(self, regions) -> None:
        """The star, plus ``regions`` (``()`` = none) behind its router."""
        cfg = self.config
        self.topology = ServiceTopology(
            self.network, regions,
            access_spec_for=lambda node_id: cfg.access_link_spec(
                self._access_loss(f"access-loss:{node_id}")
            ),
        )
        # Regional viewers join the engine's client pool so
        # orchestrated population runs reuse them in place.
        self._population.extend(self.topology.clients)
        if not self.topology.clients:
            self.topology.add_client(
                self.CLIENT,
                cfg.access_link_spec(self._access_loss("access-loss")),
            )
        for tc in cfg.traffic:
            self._add_traffic(tc)

    def _access_loss(self, stream_name: str) -> GilbertElliottLoss | None:
        cfg = self.config
        if cfg.loss_p_gb <= 0:
            return None
        return GilbertElliottLoss(
            self.rng.stream(stream_name, private=True),
            p_gb=cfg.loss_p_gb, p_bg=cfg.loss_p_bg, loss_bad=cfg.loss_bad,
            sim=self.sim, name=stream_name,
        )

    def add_client(self, node_id: str | None = None) -> str:
        """Add a viewer host with its *own* access link.

        Each client draws link parameters from the engine config and
        gets an independent loss process and port namespace. Returns
        the new node id.
        """
        if node_id is None:
            node_id = f"client{len(self._population) + 1}"
        self.topology.add_client(node_id)
        self._population.append(node_id)
        return node_id

    def client_nodes(self, n: int) -> list[str]:
        """The first ``n`` population client nodes, created on demand.

        Repeated calls reuse already-created clients, so two population
        runs on one engine share viewer hosts instead of leaking nodes.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        while len(self._population) < n:
            self.add_client()
        return self._population[:n]

    def _add_traffic(self, tc) -> None:
        self._traffic_nodes += 1
        node = f"xsrc{self._traffic_nodes}"
        self.topology.add_traffic_host(node)
        rng = self.rng.stream(f"traffic:{node}", private=True)
        target = tc.target or self.topology.clients[0]
        if tc.kind == "poisson":
            PoissonTrafficSource(
                self.network, node, target, rng, rate_bps=tc.rate_bps,
                packet_bytes=tc.packet_bytes, start_at=tc.start_at,
                stop_at=tc.stop_at,
            )
        else:
            OnOffTrafficSource(
                self.network, node, target, rng,
                peak_rate_bps=tc.rate_bps, on_mean_s=tc.on_mean_s,
                off_mean_s=tc.off_mean_s, packet_bytes=tc.packet_bytes,
                start_at=tc.start_at, stop_at=tc.stop_at,
            )

    # -- service construction ----------------------------------------------
    def add_server(
        self,
        name: str,
        documents: dict[str, tuple[str, str]] | None = None,
        description: str = "",
    ) -> MultimediaServer:
        """Add a multimedia server host.

        ``documents`` maps document name → (markup, topic); media
        stores are provisioned automatically from the scenarios'
        content indexes (synthetic objects per DESIGN.md).
        """
        if name in self.servers:
            raise ValueError(f"server {name!r} already exists")
        node_id = f"host:{name}"
        self.topology.add_server_host(node_id)
        database = MultimediaDatabase()
        media_servers: dict[str, MediaServer] = {}
        server = MultimediaServer(
            self.sim, name, node_id, database, self.accounts, self.codecs,
            media_servers,
            admission=AdmissionController(self.config.admission_capacity_bps),
            grading_policy=self.config.grading_policy,
            description=description,
        )
        server.region_resolver = self.topology.region_of
        if self.config.shared_flows:
            from repro.server.shared_flow import SharedFlowManager

            server.shared_flows = SharedFlowManager(
                self.sim, fanout_node_for=self._fanout_node_for)
        self.servers[name] = server
        for peer in self.servers.values():
            if peer is not server:
                peer.add_peer(server)
                server.add_peer(peer)
        if documents:
            for doc_name, (markup, topic) in documents.items():
                self.add_document(name, doc_name, markup, topic)
        self.apply_media_placement(name)
        return server

    def _fanout_node_for(self, client_node: str) -> str:
        """Where a shared flow fans out toward ``client_node``.

        The client's regional POP when it has one, else the core
        router — the last shared hop before the per-client access
        links.
        """
        return self.topology.pop_router(self.topology.region_of(client_node))

    def apply_media_placement(self, server_name: str) -> list[MediaServer]:
        """Provision every region's replica of every media server.

        One replica per (media server × region), named
        ``{media}@{region}``, hosted behind the region's POP; nothing
        on the bare star. Runs at the end of :meth:`add_server`; call
        it again after adding documents that introduce *new* media
        servers.
        """
        server = self.servers[server_name]
        created: list[MediaServer] = []
        for media_name in sorted(server.media_servers):
            have = {r.region for r in server.replicas.get(media_name, [])}
            for region in self.topology.regions:
                if region in have:
                    continue
                created.append(self.add_media_replica(
                    server_name, media_name,
                    replica_name=f"{media_name}@{region}", region=region,
                ))
        return created

    def add_document(self, server_name: str, doc_name: str, markup: str,
                     topic: str = "general") -> None:
        """Store a document and provision its media objects."""
        server = self.servers[server_name]
        server.database.add_markup(doc_name, markup, topic=topic)
        scenario = PresentationScenario.from_document(parse(markup))
        for spec in scenario.streams:
            ms = self._media_server_for(server, spec.locator.server or
                                        f"{server_name}-media")
            path = spec.locator.path
            if path in ms.store:
                continue
            if spec.is_continuous:
                duration = spec.entry.duration or 60.0
                codec = self.codecs.default_for(spec.media_type)
                ms.store.add(
                    ContinuousMediaObject(path, spec.media_type, codec.name,
                                          duration_s=duration)
                )
            else:
                size = (IMAGE_BYTES if spec.media_type is MediaType.IMAGE
                        else TEXT_BYTES)
                ms.store.add(
                    DiscreteMediaObject(path, spec.media_type, "GIF",
                                        size_bytes=size)
                )

    def _media_server_for(self, server: MultimediaServer,
                          media_name: str) -> MediaServer:
        """Create (or return) a media server on its multimedia server's host.

        The paper's media servers "may be located in the same host"
        (§6.1); here they always are, and a media replica
        (:meth:`add_media_replica`) is what gets a host of its own.
        """
        if media_name not in server.media_servers:
            store = MediaStore(self.codecs, self.rng)
            server.media_servers[media_name] = MediaServer(
                self.sim, self.network, media_name, server.node_id, store,
                shared_flows=server.shared_flows,
            )
        return server.media_servers[media_name]

    # -- fault injection ------------------------------------------------------
    def install_faults(
        self,
        plan=None,
        retry=None,
        recovery: bool = True,
        heartbeat: bool = False,
    ):
        """Install the fault subsystem: a plan, retry, and watchdogs.

        Call after every ``add_server``/``add_media_replica``: the
        watchdogs guard the media servers that exist at install time.
        An empty (or None) plan schedules nothing — the run stays
        byte-identical to one without the subsystem.
        """
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan
        from repro.faults.recovery import MediaWatchdog

        if self._faults is not None:
            raise RuntimeError("fault subsystem already installed")
        plan = plan if plan is not None else FaultPlan()
        self._faults = FaultInjector(self, plan, retry=retry,
                                     heartbeat=heartbeat)
        if recovery:
            for name, server in self.servers.items():
                self._watchdogs[name] = MediaWatchdog(server)
        return self._faults

    @property
    def faults(self):
        """The installed :class:`FaultInjector` (None = no faults)."""
        return self._faults

    @property
    def watchdogs(self) -> dict[str, Any]:
        """server name -> MediaWatchdog, when recovery is installed."""
        return self._watchdogs

    # -- service telemetry --------------------------------------------------
    def attach_timeseries(self):
        """Start DES-clock telemetry sampling (idempotent).

        One sampler process per engine, ticking on the simulated
        clock, so an attached engine stays deterministic. Population
        runs pick both documents up automatically: the trajectory
        (``PopulationResult.timeseries``) and the fleet rollup
        derived from it (``PopulationResult.service``).
        """
        if self._timeseries_sampler is None:
            from repro.obs.timeseries import TimeSeriesSampler

            self._timeseries_sampler = TimeSeriesSampler(self)
            self._timeseries_sampler.start()
        return self._timeseries_sampler

    #: the same call under its older name (external harnesses use both)
    attach_service_monitor = attach_timeseries

    @property
    def timeseries_sampler(self):
        """The attached :class:`TimeSeriesSampler`, or ``None``."""
        return self._timeseries_sampler

    def add_media_replica(self, server_name: str, primary_media: str,
                          replica_name: str | None = None,
                          region: str | None = None) -> MediaServer:
        """Provision a standby media server mirroring ``primary_media``.

        The replica shares the primary's store (same catalog, same
        seeded trace streams) but lives on its own host behind the
        router — or behind ``region``'s POP, making it that region's
        serving edge — so failover also moves the network path.
        """
        server = self.servers[server_name]
        primary = server.media_server(primary_media)
        if replica_name is None:
            n = len(server.replicas.get(primary_media, [])) + 1
            replica_name = f"{primary_media}-r{n}"
        node_id = f"host:{replica_name}"
        if node_id not in self.network.nodes:
            self.topology.add_server_host(node_id, region=region)
        replica = MediaServer(self.sim, self.network, replica_name, node_id,
                              primary.store, region=region,
                              shared_flows=server.shared_flows)
        server.add_replica(primary_media, replica)
        watchdog = self._watchdogs.get(server_name)
        if watchdog is not None:
            watchdog.attach(replica)
        return replica

    # -- client construction ---------------------------------------------------
    def open_session(self, server_name: str, user_id: str, secret: str,
                     client_node: str | None = None,
                     ) -> tuple[ClientSession, ServerSessionHandler]:
        """Create the control channel + protocol endpoints to a server.

        ``client_node`` selects the viewer host (default: the built-in
        single client). The control block must be free on *both* ends,
        so it is claimed from both nodes' allocators.
        """
        client_node = client_node if client_node is not None else self.CLIENT
        server = self.servers[server_name]
        cports = self.network.node(client_node).ports
        sports = self.network.node(server.node_id).ports
        base = max(cports.next_free("control"), sports.next_free("control"))
        cports.claim(base, 10, "control")
        sports.claim(base, 10, "control")
        number = next(self._session_ids)
        channel = ControlChannel(self.network, client_node, server.node_id,
                                 base_port=base, name=f"ctl-{number}")
        session_id = f"sess-{number}"
        handler = ServerSessionHandler(
            server, channel.server, session_id, client_node,
            suspend_grace_s=self.config.suspend_grace_s,
        )
        client = ClientSession(self.sim, channel.client, user_id, secret)
        if self._faults is not None:
            self._faults.on_session_opened(channel, client, handler)
        return client, handler

    def build_client_composition(self, markup: str,
                                 server: MultimediaServer,
                                 client_node: str | None = None,
                                 session: str = "",
                                 ) -> "ClientComposition":
        return ClientComposition(self, markup, server,
                                 client_node=client_node, session=session)

    # -- orchestration shims ------------------------------------------------
    @property
    def orchestrator(self):
        """The engine's :class:`SessionOrchestrator` (created lazily)."""
        if self._orchestrator is None:
            from repro.core.orchestrator import SessionOrchestrator

            self._orchestrator = SessionOrchestrator(self)
        return self._orchestrator

    @property
    def tracer(self):
        """The tracer bound to this engine's simulator (``None`` off)."""
        return self.sim.tracer


class ClientComposition:
    """The browser's machinery for one document presentation.

    Bound to one viewer host: receivers, buffers and feedback ports
    all live on ``client_node`` and draw from *its* port allocator.
    Every part is traced through the engine's simulator, its events
    stamped with ``session``.
    """

    def __init__(self, engine: ServiceEngine, markup: str,
                 server: MultimediaServer,
                 client_node: str | None = None,
                 session: str = "") -> None:
        self.engine = engine
        self.sim = engine.sim
        self.network = engine.network
        self.server = server
        self.client_node = (client_node if client_node is not None
                            else engine.CLIENT)
        cfg = engine.config
        node = self.network.node(self.client_node)
        self.scenario = PresentationScenario.from_markup(markup)
        self.qos = ClientQoSManager(self.network, self.client_node,
                                    report_interval_s=cfg.rtcp_interval_s,
                                    adaptive=cfg.rtcp_adaptive)
        self.receivers: dict[str, RtpReceiver] = {}
        self.rtp_ports: dict[str, int] = {}
        self.discrete_ports: dict[str, int] = {}
        self._discrete_rx: list[ReliableReceiver] = []
        self._closed = False

        bindings: dict[str, StreamBinding] = {}
        for spec in self.scenario.continuous_streams():
            codec = engine.codecs.default_for(spec.media_type)
            bindings[spec.stream_id] = StreamBinding(
                spec.stream_id, codec.clock_rate,
                codec.best.frame_interval_s,
            )
        self.scheduler = PresentationScheduler(
            self.sim, self.scenario, bindings,
            time_window_s=cfg.time_window_s,
            skew_enabled=cfg.skew_control, session=session,
        )
        self.log = self.scheduler.log
        for spec in self.scenario.continuous_streams():
            sid = spec.stream_id
            port = node.ports.allocate("media")
            codec = engine.codecs.default_for(spec.media_type)
            self.receivers[sid] = RtpReceiver(
                self.network, self.client_node, port, codec.clock_rate, sid,
                on_frame=self.scheduler.frame_sink(sid), session=session,
            )
            self.rtp_ports[sid] = port
        for spec in self.scenario.discrete_streams():
            sid = spec.stream_id
            port = node.ports.allocate("media")
            rx = ReliableReceiver(
                self.network, self.client_node, port,
                on_message=lambda data, size, flow, _sid=sid:
                    self.scheduler.mark_loaded(_sid),
            )
            self._discrete_rx.append(rx)
            self.discrete_ports[sid] = port
        engine.compositions.append(self)

    def attach_feedback(self, server_rtcp_port: int,
                        server_node: str) -> None:
        """Start RTCP receiver reports toward the server's sink."""
        for _sid, receiver in sorted(self.receivers.items()):
            self.qos.register_stream(receiver, None, server_node,
                                     server_rtcp_port)

    def start(self):
        """Begin presentation; returns the all-finished event."""
        return self.scheduler.start()

    def close(self) -> None:
        """Tear down this composition's network footprint.

        Unbinds every receiver and returns the media ports to the
        client node's allocator — pairing the allocations in
        ``__init__`` so a long-lived viewer host reuses its ports
        across presentations instead of leaking them. Idempotent;
        result collection still works afterwards (statistics live on
        the composition, not the bindings).
        """
        if self._closed:
            return
        self._closed = True
        if self in self.engine.compositions:
            self.engine.compositions.remove(self)
        self.qos.stop()
        node = self.network.node(self.client_node)
        for sid in sorted(self.receivers):
            self.receivers[sid].close()
            node.ports.release(self.rtp_ports[sid])
        for rx in self._discrete_rx:
            rx.close()
        for sid in sorted(self.discrete_ports):
            node.ports.release(self.discrete_ports[sid])

    # -- results -------------------------------------------------------------
    def collect_result(self, document: str, charge: float = 0.0,
                       grading_decisions: list | None = None,
                       grade_trajectories: dict | None = None
                       ) -> SessionResult:
        self.network.catch_up()  # the tap and discards read below
        result = SessionResult(
            document=document,
            completed=True,
            startup_latency_s=self.scheduler.startup_latency_s(),
            charge=charge,
            skew=dict(self.scheduler.skew_series()),
            protocol_bytes=dict(self.network.tap.bytes_by_protocol),
            log=self.log,
            client_node=self.client_node,
            rx_discarded=self.network.node(self.client_node).rx_discarded,
        )
        tally = self.log.tally()  # one pass, shared with startup and QoE
        for spec in self.scenario.streams:
            sid = spec.stream_id
            summary = tally.summary(sid)
            sr = StreamResult(
                stream_id=sid,
                media_type=spec.media_type.value,
                frames_played=int(summary["frames"]),
                gaps=int(summary["gaps"]),
                duplicates=int(summary["duplicates"]),
                drops=int(summary["drops"]),
                gap_ratio=summary["gap_ratio"],
                mean_grade=summary["mean_grade"],
            )
            rx = self.receivers.get(sid)
            if rx is not None:
                sr.packets_received = rx.stats.packets_received
                sr.packets_lost = rx.stats.cumulative_lost
                sr.mean_delay_s = rx.stats.mean_delay_s
                sr.jitter_s = rx.jitter_s
            buf = self.scheduler.buffers.get(sid)
            if buf is not None:
                sr.buffer_overflow_drops = buf.stats.overflow_drops
                sr.buffer_underflows = buf.stats.underflow_events
                sr.time_window_s = buf.time_window_s
            result.streams[sid] = sr
        if grading_decisions:
            result.grading_decisions = list(grading_decisions)
        if grade_trajectories:
            result.grade_trajectories = dict(grade_trajectories)
        return result

    def delivery_account(self, session: str) -> dict[str, Any]:
        """What this session's endpoints hold of its frames' fates.

        The client-side and network-side arguments of
        :func:`repro.obs.qoe.score`, from the playout log's tally, the
        skew controllers, receivers and buffers, and the session's
        pages of the network's frame ledger — no trace involved. A
        frame counts as lost when a link dropped a fragment of it and
        the receiver neither reassembled it nor gave up on it.
        """
        tally = self.log.tally()
        streams = tally.streams
        receivers = self.receivers
        lost = 0
        hit = self.network.frames_hit.get(session)
        if hit:
            done = {flow: set(rx.frames_done)
                    for flow, rx in receivers.items()}
            for (flow, seq), timestamp in hit.items():
                if flow not in done or (
                        seq not in done[flow]
                        and timestamp not in receivers[flow].frames_stale):
                    lost += 1
        # One ledger row per frame sent, in send order — the order the
        # trace join adds latencies up in. The first send of a frame
        # counts: a failover sender can repeat a frame seq.
        rows = iter(self.network.frames_sent.get(session, ()))
        played = {sid: dict(zip(stream.played_seqs, stream.played_at))
                  for sid, stream in streams.items()}
        sent: dict[str, set[int]] = {}
        latencies: list[float] = []
        for sid, seq, sent_s in zip(rows, rows, rows):
            seqs = sent.get(sid)
            if seqs is None:
                seqs = sent[sid] = set()
            if seq not in seqs:
                seqs.add(seq)
                played_s = played.get(sid, {}).get(seq)
                if played_s is not None:
                    latencies.append(played_s - sent_s)
        return {
            "first_play_s": tally.first_play_s,
            "gap_times": tally.gap_times,
            "skew_violations": sum(
                c.stats.corrections
                for c in self.scheduler.skew_controllers.values()),
            "frames_sent": sum(map(len, sent.values())),
            "frames_played": sum(len(s.played_seqs)
                                 for s in streams.values()),
            "frames_dropped": (
                sum(s.drops for s in streams.values())
                + sum(rx.stats.frames_dropped_fragments
                      for rx in receivers.values())
                + sum(buf.stats.overflow_drops
                      for buf in self.scheduler.buffers.values())),
            "frames_lost": lost,
            "latencies": latencies,
        }
