"""Shared-flow batching and edge-replica routing.

The delivery-side acceptance tests for the CDN refactor:

* N viewers batched onto one shared flow receive *byte-identical*
  frame sequences to what an independent per-session flow (same seed)
  would have delivered — sharing is invisible to the client stack;
* sharing cuts origin egress (the whole point);
* sessions land on their region's media replica, and failover under a
  replica crash falls back to the origin.
"""

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.faults.plan import FaultPlan, ServerCrashFault
from repro.net import cdn_stack
from repro.obs.tracer import RecordingTracer
from repro.server.flow_scheduler import FLOW_LEAD_S
from repro.server.shared_flow import BATCH_WINDOW_S
from tests.helpers import select, session_on, viewers_on


DOC = {"doc": (av_markup(4.0), "demo")}


def _frame_log(tracer, session_id):
    """One session's delivered frames, per stream: [(seq, bytes), ...].

    Keyed per stream because the A/V *interleaving* in wall time is
    allowed to shift (a shared flow starts a batch-window later); the
    frame sequence each stream delivers must not.
    """
    log = {}
    for e in select(tracer, kind="rtp.send", session=session_id):
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
    results = viewers_on(eng, "srv1", "doc", nodes)
    assert all(r.completed for r in results)
    sessions = sorted({e.session for e in
                       select(shared_tracer, kind="rtp.send")})
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
    r = session_on(ref, "srv1", "doc", client_node=node)
    assert r.completed
    (ref_session,) = {e.session for e in select(ref_tracer, kind="rtp.send")}
    assert _frame_log(ref_tracer, ref_session) == logs[0]


def test_shared_flow_traces_and_metrics():
    tracer = RecordingTracer()
    eng = ServiceEngine(
        EngineConfig(seed=3, shared_flows=True), tracer=tracer
    )
    eng.add_server("srv1", documents=DOC)
    nodes = eng.client_nodes(2)
    results = viewers_on(eng, "srv1", "doc", nodes)
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
        results = viewers_on(eng, "srv1", "doc", nodes)
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
    r = session_on(eng, "srv1", "doc", client_node="east-c1")
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
    r = session_on(eng, "srv1", "doc", client_node="east-c1")
    assert r.completed
    watchdog = eng.watchdogs["srv1"]
    assert watchdog.detections >= 1
    assert watchdog.streams_failed_over >= 1
    assert watchdog.streams_lost == 0
    # with the east edge down, the origin is the failover target
    srv = eng.servers["srv1"]
    assert srv.healthy_media_server("audsrv", client_node="east-c1").name \
        == "audsrv"
