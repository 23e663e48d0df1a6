"""Session orchestration over a built service engine.

The engine composes the system (topology, servers, documents); the
orchestrator *runs* it: scripted single sessions, concurrent viewers,
autoplay navigation, and — the multi-client shape the paper's §6.1
service actually has — populations of viewers, each contending on its
own access link while sharing the backbone and the servers' admission
capacity.

Workloads are lists of :class:`SessionSpec` (who views what, from
which host, starting when, under which contract), so one run can mix
documents, contracts and arrival processes. Results come back as
structured :class:`SessionOutcome` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.results import SessionResult

__all__ = [
    "SessionSpec",
    "SessionOutcome",
    "PopulationResult",
    "SessionOrchestrator",
]


@dataclass(slots=True)
class SessionSpec:
    """One viewer's scripted session in a workload."""

    server: str
    document: str
    user_id: str = "user1"
    secret: str = "pw"
    contract: str = "basic"
    subscribe_first: bool = True
    start_at: float = 0.0
    #: viewer host; None means the engine's default single client
    client_node: str | None = None


@dataclass(slots=True)
class SessionOutcome:
    """Structured per-session result of a workload run."""

    session_id: str
    client_node: str
    user_id: str
    server: str
    document: str
    contract: str
    start_at: float
    result: SessionResult

    @property
    def completed(self) -> bool:
        return self.result.completed


@dataclass(slots=True)
class PopulationResult:
    """Outcome of a multi-client population run."""

    outcomes: list[SessionOutcome] = field(default_factory=list)
    #: the fleet rollup (``repro.service``, loads read off the series)
    #: and the sampled series (``repro.timeseries``); both filled when
    #: the engine has its telemetry sampler attached (empty otherwise)
    service: dict[str, Any] = field(default_factory=dict)
    timeseries: dict[str, Any] = field(default_factory=dict)

    def qoe_summary(self) -> dict[str, Any]:
        """Population QoE rollup (score/startup/latency percentiles).

        Empty when no outcome carries a QoE dict.
        """
        from repro.obs.qoe import population_qoe

        return population_qoe(o.result.qoe for o in self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def completed(self) -> list[SessionOutcome]:
        return [o for o in self.outcomes if o.completed]

    def rejected(self) -> list[SessionOutcome]:
        return [o for o in self.outcomes if not o.completed]

    def delivered(self, max_gap_ratio: float = 0.25) -> list[SessionOutcome]:
        """Sessions that completed *and* actually delivered their media.

        Under faults a session can limp to completion while most of its
        playout was gaps; chaos experiments count a session as saved
        only when the gap ratio stays under ``max_gap_ratio``.
        """
        return [o for o in self.completed()
                if o.result.total_gap_ratio() <= max_gap_ratio]

    def to_dict(self) -> dict:
        """Full JSON-serializable form (for determinism digests).

        ``service`` and ``timeseries`` join the dict only when the
        sampler produced them, so digests of unsampled runs match
        pre-telemetry builds.
        """
        doc = {
            "outcomes": [
                {
                    "session_id": o.session_id,
                    "client_node": o.client_node,
                    "user_id": o.user_id,
                    "server": o.server,
                    "document": o.document,
                    "contract": o.contract,
                    "start_at": o.start_at,
                    "result": o.result.to_dict(),
                }
                for o in self.outcomes
            ],
        }
        if self.service:
            doc["service"] = self.service
        if self.timeseries:
            doc["timeseries"] = self.timeseries
        return doc

    def by_client(self) -> dict[str, list[SessionOutcome]]:
        grouped: dict[str, list[SessionOutcome]] = {}
        for o in self.outcomes:
            grouped.setdefault(o.client_node, []).append(o)
        return grouped

    def results(self) -> list[SessionResult]:
        return [o.result for o in self.outcomes]


class SessionOrchestrator:
    """Runs on-demand sessions against a built :class:`ServiceEngine`."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.sim = engine.sim

    # -- the canonical session coroutine ------------------------------------
    def _session_script(self, client, handler, server, document: str,
                        result_box: dict[str, Any], contract: str,
                        subscribe_first: bool, start_delay_s: float = 0.0,
                        client_node: str | None = None):
        """connect → request → view → disconnect, leaving artefacts in
        ``result_box``."""
        from repro.server.accounts import SubscriptionForm

        user_id = client.user_id
        result_box["_client"] = client
        if start_delay_s > 0:
            yield self.sim.timeout(start_delay_s)
        tracing = self.sim._tracing
        session_id = handler.session_id
        node = client_node if client_node is not None else self.engine.CLIENT
        result_box["begin_s"] = self.sim.now
        if tracing:
            self.sim._tracer.span_begin(
                self.sim.now, "session", session_id, session=session_id,
                node=node, document=document, user=user_id,
            )
        resp = yield from client.connect()
        if resp.msg_type == "subscribe-required" and subscribe_first:
            form = SubscriptionForm(
                real_name=user_id.title(), address="somewhere",
                email=f"{user_id}@example.org",
            )
            resp = yield from client.subscribe(form, contract=contract)
        if resp.msg_type != "connect-ok":
            result_box["error"] = resp.body.get("reason", "rejected")
            result_box["end_s"] = self.sim.now
            if tracing:
                self.sim._tracer.span_end(
                    self.sim.now, "session", session_id, session=session_id,
                    outcome="rejected",
                )
            return
        resp = yield from client.request_document(document)
        if resp.msg_type != "scenario":
            result_box["error"] = resp.body.get("reason", "no scenario")
            result_box["end_s"] = self.sim.now
            if tracing:
                self.sim._tracer.span_end(
                    self.sim.now, "session", session_id, session=session_id,
                    outcome="no-scenario",
                )
            return
        comp = self.engine.build_client_composition(
            resp.body["markup"], server, client_node=client_node
        )
        if tracing:
            comp.set_tracer(self.sim._tracer, session_id)
        ready = yield from client.send_ready(comp.rtp_ports,
                                             comp.discrete_ports)
        if ready.msg_type != "streams-started":
            result_box["error"] = ready.body.get("reason", ready.msg_type)
            result_box["end_s"] = self.sim.now
            if tracing:
                self.sim._tracer.span_end(
                    self.sim.now, "session", session_id, session=session_id,
                    outcome="no-streams",
                )
            return
        comp.attach_feedback(ready.body["rtcp_port"], server.node_id)
        done = comp.start()
        yield done
        client.end_presentation()
        comp.qos.stop()
        # Capture server-side state that disconnect tears down.
        if handler.session is not None:
            mgr = handler.session.qos_manager
            result_box["decisions"] = list(mgr.decisions)
            result_box["trajectories"] = {
                sid: conv.grade_trajectory()
                for sid, conv in mgr.converters().items()
                if sid in comp.receivers
            }
        charge = yield from client.disconnect()
        comp.close()  # return the client's media ports to its node
        result_box["comp"] = comp
        result_box["charge"] = charge
        result_box["end_s"] = self.sim.now
        if tracing:
            self.sim._tracer.span_end(
                self.sim.now, "session", session_id, session=session_id,
                outcome="completed", charge=charge,
            )

    @staticmethod
    def _result_from_box(box: dict[str, Any],
                         document: str) -> SessionResult:
        if "comp" in box:
            comp = box["comp"]
            result = comp.collect_result(
                document, charge=box.get("charge", 0.0),
                grading_decisions=box.get("decisions", []),
                grade_trajectories=box.get("trajectories", {}),
            )
        else:
            result = SessionResult(
                document=document, completed=False,
                startup_latency_s=None, charge=0.0,
                events=[box.get("error", "did not finish")],
            )
        client = box.get("_client")
        if client is not None:
            result.retries = client.retries
            result.recoveries = client.recoveries
        return result

    # -- single scripted session --------------------------------------------
    def run_full_session(
        self,
        server_name: str,
        document: str,
        user_id: str = "user1",
        secret: str = "pw",
        contract: str = "basic",
        subscribe_first: bool = True,
        horizon_s: float = 600.0,
        client_node: str | None = None,
    ) -> SessionResult:
        """Script a complete session: connect → request → view → bye.

        A workload of one: same script, horizon guard and scored
        ``qoe`` as :meth:`run_workload`.
        """
        return self.run_workload([SessionSpec(
            server=server_name, document=document, user_id=user_id,
            secret=secret, contract=contract,
            subscribe_first=subscribe_first, client_node=client_node,
        )], horizon_s=horizon_s)[0].result

    # -- concurrent viewers on shared or separate hosts ---------------------
    def run_concurrent_sessions(
        self,
        server_name: str,
        document: str,
        n_sessions: int,
        stagger_s: float = 0.5,
        contract: str = "basic",
        horizon_s: float = 600.0,
        client_nodes: Sequence[str] | None = None,
    ) -> list[SessionResult]:
        """Run ``n_sessions`` simultaneous viewers of one document.

        Sessions start ``stagger_s`` apart; each gets its own control
        channel, buffers, RTP ports and server-side QoS manager. By
        default all viewers share the engine's single client host (and
        its access-link bottleneck); ``client_nodes`` places session
        ``i`` on ``client_nodes[i]`` instead. Returns one
        :class:`SessionResult` per session (uncompleted sessions get
        ``completed=False``).
        """
        if n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        if client_nodes is not None and len(client_nodes) != n_sessions:
            raise ValueError(
                f"need {n_sessions} client nodes, got {len(client_nodes)}"
            )
        specs = [
            SessionSpec(
                server=server_name, document=document,
                user_id=f"user{i + 1}", contract=contract,
                start_at=i * stagger_s,
                client_node=client_nodes[i] if client_nodes is not None
                else None,
            )
            for i in range(n_sessions)
        ]
        return [o.result for o in self.run_workload(specs,
                                                    horizon_s=horizon_s)]

    # -- mixed workloads -----------------------------------------------------
    def run_workload(self, specs: Sequence[SessionSpec],
                     horizon_s: float = 600.0) -> list[SessionOutcome]:
        """Run a mixed workload: one scripted session per spec.

        Specs may name different documents, servers, contracts, client
        hosts and start times in one run; everything shares the
        simulated network and the servers' admission capacity.
        """
        if not specs:
            raise ValueError("workload needs at least one session spec")
        engine = self.engine
        entries = []
        procs = []
        for i, spec in enumerate(specs):
            server = engine.servers[spec.server]
            client, handler = engine.open_session(
                spec.server, spec.user_id, spec.secret,
                client_node=spec.client_node,
            )
            box: dict[str, Any] = {}
            entries.append((spec, handler, box))
            procs.append(self.sim.process(
                self._session_script(client, handler, server, spec.document,
                                     box, spec.contract, spec.subscribe_first,
                                     start_delay_s=spec.start_at,
                                     client_node=spec.client_node),
                name=f"session-{i + 1}",
            ))
        tracer = self.sim.tracer
        tracing = self.sim._tracing
        if tracing:
            tracer.span_begin(self.sim.now, "workload",
                              f"workload[{len(specs)}]",
                              sessions=len(specs))
        guard = self.sim.any_of(
            [self.sim.all_of(procs), self.sim.timeout(horizon_s)]
        )
        self.sim.run(until=guard)
        self.sim.run(until=self.sim.now + 1.0)
        outcomes: list[SessionOutcome] = []
        for spec, handler, box in entries:
            result = self._result_from_box(box, spec.document)
            result.qoe = self._session_qoe(handler.session_id, box)
            outcomes.append(SessionOutcome(
                session_id=handler.session_id,
                client_node=(spec.client_node if spec.client_node is not None
                             else engine.CLIENT),
                user_id=spec.user_id,
                server=spec.server,
                document=spec.document,
                contract=spec.contract,
                start_at=spec.start_at,
                result=result,
            ))
        if tracing:
            tracer.span_end(self.sim.now, "workload",
                            f"workload[{len(specs)}]",
                            completed=sum(o.completed for o in outcomes))
        return outcomes

    def _session_qoe(self, session_id: str,
                     box: dict[str, Any]) -> dict[str, Any]:
        """The session's QoE dict from what its endpoints hold.

        Begin and end are the script's own instants (a session still
        running at the horizon ends now); a session that never got a
        presentation scores on its duration alone.
        """
        from repro.obs.qoe import score

        now = self.sim.now
        comp = box.get("comp")
        return score(
            session_id,
            begin_s=box.get("begin_s", now), end_s=box.get("end_s", now),
            grade_changes=[(d.time, d.old_grade, d.new_grade)
                           for d in box.get("decisions", ())],
            **(comp.delivery_account(session_id) if comp is not None
               else {}),
        ).to_dict()

    # -- multi-client populations --------------------------------------------
    def run_population(
        self,
        n_clients: int,
        server_name: str,
        document: str | Sequence[str],
        *,
        contract: str | Sequence[str] = "basic",
        stagger_s: float = 0.5,
        interarrival_mean_s: float | None = None,
        horizon_s: float = 600.0,
    ) -> PopulationResult:
        """Run one viewer per client host, each on its own access link.

        This is the paper's multi-client service shape: ``n_clients``
        hosts are stamped out (reusing any from earlier runs), each
        with an access link drawn from the engine config, and one
        session per host contends with the others only where the
        system genuinely couples them — the shared backbone and the
        server's admission capacity — never on ports or a shared
        access link.

        ``document``/``contract`` may be sequences (cycled across
        viewers) for mixed workloads. Arrivals are deterministic every
        ``stagger_s`` unless ``interarrival_mean_s`` sets a Poisson
        arrival process (seeded from the engine's RNG registry, so
        runs replay identically).
        """
        nodes = self.engine.client_nodes(n_clients)
        documents = ([document] if isinstance(document, str)
                     else list(document))
        contracts = ([contract] if isinstance(contract, str)
                     else list(contract))
        if interarrival_mean_s is not None:
            rng = self.engine.rng.stream("population:arrivals")
            gaps = rng.exponential(interarrival_mean_s, size=n_clients)
            starts = [float(g) for g in gaps.cumsum()]
        else:
            starts = [i * stagger_s for i in range(n_clients)]
        specs = [
            SessionSpec(
                server=server_name,
                document=documents[i % len(documents)],
                user_id=f"viewer{i + 1}",
                contract=contracts[i % len(contracts)],
                start_at=starts[i],
                client_node=nodes[i],
            )
            for i in range(n_clients)
        ]
        tracer = self.sim.tracer
        tracing = self.sim._tracing
        if tracing:
            tracer.span_begin(self.sim.now, "population",
                              f"population[{n_clients}]",
                              clients=n_clients, server=server_name)
        result = PopulationResult(self.run_workload(specs,
                                                    horizon_s=horizon_s))
        if tracing:
            tracer.span_end(self.sim.now, "population",
                            f"population[{n_clients}]",
                            completed=len(result.completed()))
        sampler = self.engine.timeseries_sampler
        if sampler is not None:
            from repro.obs.service_metrics import service_doc

            result.timeseries = sampler.series.to_dict()
            result.service = service_doc(self.engine, result.timeseries)
        return result

    # -- autoplay ------------------------------------------------------------
    def run_autoplay_sequence(
        self,
        server_name: str,
        first_document: str,
        user_id: str = "user1",
        secret: str = "pw",
        max_documents: int = 10,
        horizon_s: float = 600.0,
        client_node: str | None = None,
    ) -> list[dict[str, Any]]:
        """Follow the author's pre-orchestrated sequence (§3).

        Plays ``first_document`` and auto-follows its AT-timed
        hyperlink when the time elapses — "this feature can preserve
        the sequential nature or 'writer's way' of presentation, in
        the absence of user involvement" — until a document has no
        timed link or ``max_documents`` is reached. Returns one entry
        per visited document with its outcome and navigation history.
        """
        from repro.server.accounts import SubscriptionForm
        from repro.service.history import NavigationHistory

        engine = self.engine
        server = engine.servers[server_name]
        client, handler = engine.open_session(server_name, user_id, secret,
                                              client_node=client_node)
        history = NavigationHistory()
        visits: list[dict[str, Any]] = []

        def script():
            resp = yield from client.connect()
            if resp.msg_type == "subscribe-required":
                resp = yield from client.subscribe(SubscriptionForm(
                    real_name=user_id.title(), address="somewhere",
                    email=f"{user_id}@example.org"))
            if resp.msg_type != "connect-ok":
                return
            current = first_document
            via_link = False
            for _ in range(max_documents):
                resp = yield from client.request_document(current,
                                                          via_link=via_link)
                via_link = True
                if resp.msg_type != "scenario":
                    break
                history.visit(current)
                comp = engine.build_client_composition(
                    resp.body["markup"], server, client_node=client_node
                )
                if self.sim._tracing:
                    comp.set_tracer(self.sim._tracer, handler.session_id)
                ready = yield from client.send_ready(
                    comp.rtp_ports, comp.discrete_ports)
                if ready.msg_type != "streams-started":
                    break
                comp.attach_feedback(ready.body["rtcp_port"],
                                     server.node_id)
                done = comp.start()
                link = comp.scenario.timed_link()
                interrupted = False
                if link is not None and link.at_time is not None:
                    fire_at = comp.scheduler.initial_delay_s + link.at_time
                    timer = self.sim.timeout(fire_at)
                    yield self.sim.any_of([done, timer])
                    if not done.triggered:
                        comp.scheduler.interrupt()
                        interrupted = True
                        yield from client.stop_streams()
                else:
                    yield done
                comp.close()
                visits.append({
                    "document": current,
                    "interrupted": interrupted,
                    "frames": sum(
                        comp.log.summary(s.stream_id)["frames"]
                        for s in comp.scenario.continuous_streams()
                    ),
                })
                if link is None:
                    break
                # Follow the timed link (state is still VIEWING whether
                # the presentation completed or was interrupted).
                client.follow_link_local()
                current = link.target_document
            yield from client.disconnect()

        proc = self.sim.process(script(), name="autoplay")
        guard = self.sim.any_of([proc, self.sim.timeout(horizon_s)])
        self.sim.run(until=guard)
        self.sim.run(until=self.sim.now + 1.0)
        return [dict(v, history=history.entries()) for v in visits]
