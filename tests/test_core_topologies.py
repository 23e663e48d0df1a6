"""Tests for engine topology options and full-stack interactive ops."""

from repro.client.metrics import PlayoutEventKind
from repro.core import EngineConfig, ServiceEngine
from repro.core.experiments import av_markup
from repro.hml.examples import figure2_markup
from repro.obs import RecordingTracer
from tests.helpers import select


def test_colocated_default_topology():
    eng = ServiceEngine()
    eng.add_server("srv1", documents={"fig2": (figure2_markup(), "demo")})
    server = eng.servers["srv1"]
    nodes = {ms.node_id for ms in server.media_servers.values()}
    assert nodes == {server.node_id}


def _pause_resume_reload(eng, session=""):
    """Pause at t≈1.5, resume at t≈4.5, then reload, on a composition
    built straight from the engine; returns what the script saw."""
    eng.add_server("srv1", documents={"doc": (av_markup(4.0), "x")})
    server = eng.servers["srv1"]
    client, handler = eng.open_session("srv1", "u", "pw")
    box = {}

    def script():
        from repro.server.accounts import SubscriptionForm

        resp = yield from client.connect()
        if resp.msg_type == "subscribe-required":
            yield from client.subscribe(SubscriptionForm(
                real_name="U", address="x", email="u@e.org"))
        resp = yield from client.request_document("doc")
        comp = eng.build_client_composition(resp.body["markup"], server,
                                            session=session)
        ready = yield from client.send_ready(comp.rtp_ports,
                                             comp.discrete_ports)
        comp.attach_feedback(ready.body["rtcp_port"], server.node_id)
        done = comp.start()
        # Pause both sides at t≈1.5, resume at t≈4.5.
        yield eng.sim.timeout(1.5)
        yield from client.pause()
        comp.scheduler.pause()
        pause_started = eng.sim.now
        yield eng.sim.timeout(3.0)
        yield from client.resume()
        comp.scheduler.resume()
        yield done
        box["end"] = eng.sim.now
        box["pause_started"] = pause_started
        box["comp"] = comp
        comp.qos.stop()
        # Reload: request the same document again (FSM reload edge).
        client.reload()
        resp = yield from client.request_document("doc", via_link=True)
        box["reload"] = resp.msg_type
        yield from client.disconnect()

    proc = eng.sim.process(script())
    eng.sim.run(until=proc)
    eng.sim.run(until=eng.sim.now + 1.0)
    return box


def test_full_stack_pause_resume_and_reload():
    """§5 interactive operations across the whole stack: pause stops
    server transmission and client playout; resume continues; reload
    re-requests the same document."""
    box = _pause_resume_reload(ServiceEngine())
    comp = box["comp"]
    # The 4 s presentation stretched by ~3 s of pause.
    assert box["end"] >= box["pause_started"] + 3.0
    # No frames arrived at the client's receivers during the pause gap
    # (beyond a small in-flight tail).
    assert comp.log.gap_count() == 0
    assert box["reload"] == "scenario"


def test_a_composition_built_on_a_traced_engine_is_traced():
    """A composition built through ``build_client_composition`` reads
    the engine's tracer like the network under it: playout, buffer and
    RTCP events, each stamped with the session it was built with."""
    tracer = RecordingTracer()
    box = _pause_resume_reload(ServiceEngine(tracer=tracer),
                               session="sess-direct")
    counts = tracer.kind_counts()
    for kind in ("playout.start", "playout.frame", "playout.pause",
                 "playout.resume", "playout.stop", "buffer.watermark"):
        assert counts.get(kind, 0) > 0, kind
    frames = select(tracer, kind="playout.frame")
    assert len(frames) == box["comp"].log.count(PlayoutEventKind.FRAME)
    reports = select(tracer, kind="rtcp.report")
    assert reports
    for kind in ("playout.frame", "buffer.watermark", "buffer.push",
                 "rtcp.report"):
        assert {e.session for e in select(tracer, kind=kind)} == \
            {"sess-direct"}, kind


def test_time_window_sizing_uses_statistics_when_unset():
    """With time_window_s=None the buffers size themselves from the
    statistical formula (not a fixed default)."""
    eng = ServiceEngine(EngineConfig(time_window_s=None))
    eng.add_server("srv1", documents={"doc": (av_markup(3.0), "x")})
    result = eng.orchestrator.run_full_session("srv1", "doc")
    assert result.completed
    for sid in ("A", "V"):
        assert result.streams[sid].time_window_s >= 0.2
