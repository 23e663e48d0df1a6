"""Shared-flow batching, edge-replica routing, and periodic broadcast.

The delivery-side acceptance tests for the CDN refactor:

* N viewers batched onto one shared flow receive *byte-identical*
  frame sequences to what an independent per-session flow (same seed)
  would have delivered — sharing is invisible to the client stack;
* sharing cuts origin egress (the whole point);
* sessions land on their region's media replica, and failover under a
  replica crash falls back to the origin;
* a periodic broadcast's origin egress is constant in audience size.
"""

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.faults.plan import FaultPlan, ServerCrashFault
from repro.net import cdn_stack
from repro.obs.tracer import RecordingTracer
from repro.server.broadcast import HotSet, quasi_harmonic_schedule
from repro.server.flow_scheduler import FLOW_LEAD_S
from repro.server.shared_flow import BATCH_WINDOW_S


DOC = {"doc": (av_markup(4.0), "demo")}


def _frame_log(tracer, session_id):
    """One session's delivered frames, per stream: [(seq, bytes), ...].

    Keyed per stream because the A/V *interleaving* in wall time is
    allowed to shift (a shared flow starts a batch-window later); the
    frame sequence each stream delivers must not.
    """
    log = {}
    for e in tracer.select(kind="rtp.send", session=session_id):
        log.setdefault(e.name, []).append((e.args["frame"],
                                           e.args["bytes"]))
    return log


def _egress_bytes(eng, node_id):
    return sum(
        link.stats.tx_bytes
        for (src, _dst), link in eng.network.links.items()
        if src == node_id
    )


def _media_hosts(eng):
    return {ms.node_id for ms in eng.servers["srv1"].all_media_servers()}


def test_batch_window_fits_in_the_flow_lead():
    # the prefill the lead buys absorbs a joiner's wait for its batch
    assert 0 <= BATCH_WINDOW_S < FLOW_LEAD_S


# -- byte-identity ------------------------------------------------------------

def test_shared_subscribers_get_byte_identical_frame_sequences():
    # Shared run: 3 viewers batched onto one flow per stream.
    shared_tracer = RecordingTracer()
    eng = ServiceEngine(
        EngineConfig(seed=11, shared_flows=True), tracer=shared_tracer
    )
    eng.add_server("srv1", documents=DOC)
    nodes = eng.client_nodes(3)
    results = eng.orchestrator.run_concurrent_sessions(
        "srv1", "doc", 3, stagger_s=0.0, client_nodes=nodes
    )
    assert all(r.completed for r in results)
    sessions = sorted({e.session for e in
                       shared_tracer.select(kind="rtp.send")})
    assert len(sessions) == 3
    logs = [_frame_log(shared_tracer, s) for s in sessions]
    assert logs[0], "expected rtp.send events per subscriber"
    # every subscriber saw the same (stream, frame, bytes) sequence
    assert logs[0] == logs[1] == logs[2]

    # Reference run: a FRESH engine, same seed, one independent flow.
    # (Fresh because trace RNG streams are cached per name: the first
    # consumer in each engine sees the same draws.)
    ref_tracer = RecordingTracer()
    ref = ServiceEngine(EngineConfig(seed=11), tracer=ref_tracer)
    ref.add_server("srv1", documents=DOC)
    node = ref.client_nodes(1)[0]
    r = ref.orchestrator.run_full_session("srv1", "doc", client_node=node)
    assert r.completed
    (ref_session,) = {e.session for e in ref_tracer.select(kind="rtp.send")}
    assert _frame_log(ref_tracer, ref_session) == logs[0]


def test_shared_flow_traces_and_metrics():
    tracer = RecordingTracer()
    eng = ServiceEngine(
        EngineConfig(seed=3, shared_flows=True), tracer=tracer
    )
    eng.add_server("srv1", documents=DOC)
    nodes = eng.client_nodes(2)
    results = eng.orchestrator.run_concurrent_sessions(
        "srv1", "doc", 2, stagger_s=0.0, client_nodes=nodes
    )
    assert all(r.completed for r in results)
    counts = tracer.kind_counts()
    # one open + one join per stream (A and V), one start each
    assert counts.get("sflow.open") == 2
    assert counts.get("sflow.join") == 2
    assert counts.get("sflow.start") == 2
    # the manager's own always-on counters say the same
    manager = eng.servers["srv1"].shared_flows
    assert (manager.flows_started, manager.joins) == (2, 4)


def test_shared_flow_cuts_origin_egress():
    def egress(shared):
        eng = ServiceEngine(EngineConfig(seed=7, shared_flows=shared))
        eng.add_server("srv1", documents=DOC)
        nodes = eng.client_nodes(4)
        results = eng.orchestrator.run_concurrent_sessions(
            "srv1", "doc", 4, stagger_s=0.0, client_nodes=nodes
        )
        assert all(r.completed for r in results)
        return sum(_egress_bytes(eng, host) for host in _media_hosts(eng))

    independent = egress(False)
    batched = egress(True)
    # 4 viewers on one flow: media-host egress shrinks toward 1/4
    # (carrier overhead and control traffic keep it above exactly 4x)
    assert batched * 2 < independent


# -- region routing + failover ------------------------------------------------

def _cdn_engine(seed=5, tracer=None, **cfg):
    eng = ServiceEngine(
        EngineConfig(seed=seed, **cfg), tracer=tracer,
        layers=cdn_stack(clients_per_region=2),
    )
    eng.add_server("srv1", documents=DOC)
    return eng


def test_sessions_land_on_their_regions_replica():
    eng = _cdn_engine()
    series = eng.attach_timeseries().series
    srv = eng.servers["srv1"]
    # replicas were provisioned from the placement layer
    assert {ms.name for ms in srv.replicas["audsrv"]} == {
        "audsrv@east", "audsrv@west"
    }
    assert srv.healthy_media_server("vidsrv", client_node="west-c1").name \
        == "vidsrv@west"
    r = eng.orchestrator.run_full_session("srv1", "doc",
                                          client_node="east-c1")
    assert r.completed
    served = {name for name in series.columns
              if name.startswith("streams.") and max(series.values(name)) > 0}
    # both streams came from the east edge, none from the origin
    assert served == {"streams.audsrv@east", "streams.vidsrv@east"}


def test_replica_crash_fails_over_to_origin():
    eng = _cdn_engine()
    plan = FaultPlan((
        ServerCrashFault(server="srv1", media_server="audsrv@east",
                         at=1.5),
        ServerCrashFault(server="srv1", media_server="vidsrv@east",
                         at=1.5),
    ))
    eng.install_faults(plan, recovery=True)
    r = eng.orchestrator.run_full_session("srv1", "doc",
                                          client_node="east-c1")
    assert r.completed
    watchdog = eng.watchdogs["srv1"]
    assert watchdog.detections >= 1
    assert watchdog.streams_failed_over >= 1
    assert watchdog.streams_lost == 0
    # with the east edge down, the origin is the failover target
    srv = eng.servers["srv1"]
    assert srv.healthy_media_server("audsrv", client_node="east-c1").name \
        == "audsrv"


# -- periodic broadcast -------------------------------------------------------

def test_quasi_harmonic_schedule_shape():
    sched = quasi_harmonic_schedule(60.0, 1e6, 6, subslots=4)
    rates = [ch.rate_bps for ch in sched.channels]
    assert rates[0] == 1e6
    # later segments stream strictly slower
    assert all(a > b for a, b in zip(rates, rates[1:]))
    # quasi-harmonic sits above classic harmonic (b/i) per channel
    for i, rate in enumerate(rates[1:], start=2):
        assert rate > 1e6 / i
    assert sched.slot_s == 10.0
    assert sched.max_wait_s() == 10.0
    # far cheaper than unicasting to each of (say) 10 viewers
    assert sched.bandwidth_ratio() < 4.0


def test_broadcast_origin_egress_constant_in_viewers():
    from repro.server.broadcast import PeriodicBroadcaster

    def run(n_viewers):
        eng = ServiceEngine(EngineConfig(seed=5))
        eng.add_server("srv1", documents=DOC)
        ms = eng.servers["srv1"].media_server("vidsrv")
        bc = PeriodicBroadcaster(
            eng.sim, eng.network, ms, "/v.mpg", "router",
            n_segments=4, horizon_s=6.0,
        )
        finished = []
        for i in range(n_viewers):
            node = eng.add_client(f"viewer{i + 1}")
            eng.sim.call_later(0.4 * i, lambda i=i, node=node: finished.append(
                bc.join(f"s{i}", "V", node, 47000 + i)
            ))
        eng.sim.run(until=12.0)
        assert bc.viewers_served == n_viewers
        assert all(ev.triggered for ev in finished)
        return bc.carrier_bytes, _egress_bytes(eng, ms.node_id)

    carrier_1, egress_1 = run(1)
    carrier_3, egress_3 = run(3)
    # the defining property: origin cost does not grow with audience
    assert carrier_1 == carrier_3
    assert egress_1 == egress_3


def test_broadcast_viewer_is_a_registered_stream_at_the_pop():
    from repro.server.broadcast import PeriodicBroadcaster

    eng = ServiceEngine(EngineConfig(seed=5))
    eng.add_server("srv1", documents=DOC)
    ms = eng.servers["srv1"].media_server("vidsrv")
    router = eng.network.node("router")
    bc = PeriodicBroadcaster(eng.sim, eng.network, ms, "/v.mpg", "router",
                             n_segments=4, horizon_s=6.0)
    viewer = eng.add_client("viewer1")
    eng.sim.run(until=0.3)
    finished = bc.join("s0", "V", viewer, 47000)
    # one pump with one leg, pulled and packetized on the fan-out node
    pump = ms.streams["s0", "V"]
    assert (pump.node_id, pump.leg_node) == ("router", "router")
    assert list(pump.legs) == [("s0", "V")]
    assert router.ports.allocated("media") == 2  # carrier sink + the leg
    # ...so whatever walks the registry sees it: a crash stops it
    eng.sim.run(until=bc.wait_s(at=0.3) + 1.3)
    assert 0 < pump.frames_sent < 30
    ms.crash()
    # ...and whoever waits on the viewer's pump is told, once (a stopped
    # pump used to leave this event pending for ever)
    assert not ms.streams and not pump.alive
    assert finished.triggered and finished.value == pump.frames_sent
    assert [s.origin.key for s in ms.wreckage] == [("s0", "V")]
    sent = pump.frames_sent
    eng.sim.run(until=12.0)
    assert pump.frames_sent == sent
    bc.stop()
    assert router.ports.allocated("media") == 0


def test_viewer_wait_bounded_by_one_slot():
    from repro.server.broadcast import PeriodicBroadcaster

    eng = ServiceEngine(EngineConfig(seed=5))
    eng.add_server("srv1", documents=DOC)
    ms = eng.servers["srv1"].media_server("vidsrv")
    bc = PeriodicBroadcaster(eng.sim, eng.network, ms, "/v.mpg", "router",
                             n_segments=4, horizon_s=6.0)
    slot = bc.schedule.slot_s
    assert bc.wait_s(at=0.0) == 0.0
    assert 0.0 < bc.wait_s(at=slot * 0.25) <= slot
    assert bc.wait_s(at=slot * 1.75) <= slot


def test_hot_set_ranks_by_demand():
    hot = HotSet()
    for name, n in (("a", 3), ("b", 5), ("c", 3), ("d", 1)):
        for _ in range(n):
            hot.record(name)
    assert hot.top(2) == ["b", "a"]  # ties broken by name
    assert hot.top(0) == []
    assert hot.demand("d") == 1
