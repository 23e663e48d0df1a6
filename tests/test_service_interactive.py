"""Tests for the §5/§6.2.3 interactive features: navigation history,
annotations, media disabling, and timed-link autoplay."""

import pytest

from repro.core import ServiceEngine
from repro.core.config import EngineConfig
from repro.hml import DocumentBuilder, serialize
from repro.obs.tracer import RecordingTracer
from repro.server.accounts import QoSPreferences, SubscriptionForm
from repro.service import AnnotationStore, NavigationHistory
from tests.helpers import interval_of
from tests.helpers import select


# ------------------------------------------------------------- history
def test_history_back_forward():
    h = NavigationHistory()
    assert h.current is None
    h.visit("a")
    h.visit("b")
    h.visit("c")
    assert h.current == "c"
    assert h.back() == "b"
    assert h.back() == "a"
    assert not h.can_back
    assert h.forward() == "b"
    assert h.entries() == ["a", "b", "c"]


def test_history_visit_truncates_forward_branch():
    h = NavigationHistory()
    for d in ("a", "b", "c"):
        h.visit(d)
    h.back()
    h.back()
    h.visit("x")  # from 'a', new branch
    assert h.entries() == ["a", "x"]
    assert not h.can_forward


def test_history_revisit_current_is_noop_and_validation():
    h = NavigationHistory()
    h.visit("a")
    h.visit("a")
    assert h.entries() == ["a"]
    with pytest.raises(ValueError):
        h.visit("")
    with pytest.raises(IndexError):
        h.back()
    with pytest.raises(IndexError):
        h.forward()


# ------------------------------------------------------------- annotations
def test_annotation_store():
    store = AnnotationStore(author="alice")
    a1 = store.annotate("doc1", "interesting claim", now=10.0,
                        element_id="V", presentation_time_s=4.2)
    store.annotate("doc1", "check later", now=11.0)
    store.annotate("doc2", "other doc", now=12.0)
    assert len(store) == 3
    assert store.documents() == ["doc1", "doc2"]
    assert [a.text for a in store.for_document("doc1")] == \
        ["interesting claim", "check later"]
    assert [a for a in store.for_document("doc1")
            if a.element_id == "V"] == [a1]
    with pytest.raises(ValueError):
        store.annotate("doc1", "   ", now=1.0)


# ------------------------------------------------------------- disable
def doc_with_two_streams(duration=6.0):
    return serialize(
        DocumentBuilder("Two streams")
        .audio("audsrv:/a.au", "A", startime=0.0, duration=duration)
        .video("vidsrv:/v.mpg", "V", startime=0.0, duration=duration)
        .image("imgsrv:/i.gif", "I", startime=0.0, duration=duration)
        .build()
    )


def _server_side_ports(eng, client_node):
    """Every (node, port) bound off the viewer's own host."""
    return {(n.node_id, port) for n in eng.network.nodes.values()
            if n.node_id != client_node for port in n.bound_ports()}


def _viewer(eng, user, node, disable_at, box):
    """One viewer's script: present the document, switching the video
    off ``disable_at`` seconds in (None: watch it all)."""
    server = eng.servers["srv1"]
    client, handler = eng.open_session("srv1", user, "pw", client_node=node)
    box["session_id"] = handler.session_id

    def script():
        resp = yield from client.connect()
        if resp.msg_type == "subscribe-required":
            yield from client.subscribe(SubscriptionForm(
                real_name="U", address="x", email="u@e.org"))
        resp = yield from client.request_document("doc")
        comp = eng.build_client_composition(resp.body["markup"], server,
                                            client_node=node)
        ready = yield from client.send_ready(comp.rtp_ports,
                                             comp.discrete_ports)
        comp.attach_feedback(ready.body["rtcp_port"], server.node_id)
        done = comp.start()
        if disable_at is not None:
            yield eng.sim.timeout(disable_at)
            vid_ms = server.media_servers["vidsrv"]
            box["pump"] = vid_ms.streams[handler.session_id, "V"]
            bound = _server_side_ports(eng, comp.client_node)
            # User turns the video off mid-presentation.
            comp.scheduler.disable_stream("V")
            box["reply"] = yield from client.disable_stream("V")
            box["unbound"] = bound - _server_side_ports(eng,
                                                        comp.client_node)
        yield done  # presentation still completes
        comp.qos.stop()
        box["comp"] = comp
        yield from client.disconnect()

    return eng.sim.process(script())


def test_a_users_qos_preferences_reach_the_streams_it_starts():
    """§4: grading takes "the user's desired levels of presentation
    quality" into account: the account's floor grade and its refusal of
    suspension reach the converter of every stream the session starts."""
    eng = _disable_engine(shared_flows=False)
    server = eng.servers["srv1"]
    account = server.accounts.subscribe("ada", SubscriptionForm(
        real_name="Ada", address="x", email="ada@e.org"), secret="pw")
    account.qos = QoSPreferences(video_floor_grade=2, audio_floor_grade=1,
                                 allow_suspend=False)
    client, handler = eng.open_session("srv1", "ada", "pw")

    def script():
        yield from client.connect()
        resp = yield from client.request_document("doc")
        comp = eng.build_client_composition(resp.body["markup"], server)
        yield from client.send_ready(comp.rtp_ports, comp.discrete_ports)

    eng.sim.run(until=eng.sim.process(script()))
    video = handler.session.qos_manager.converters()["V"]
    assert (video.floor_grade, video.allow_suspend) == (2, False)
    while video.can_degrade:
        video.degrade(eng.sim.now)
    assert video.grade_index == 2 and not video.suspended


def _disable_engine(shared_flows, tracer=None):
    eng = ServiceEngine(EngineConfig(shared_flows=shared_flows),
                        tracer=tracer)
    eng.add_server("srv1", documents={"doc": (doc_with_two_streams(), "x")})
    return eng


def _check_disable_stream_end_to_end(shared_flows):
    eng = _disable_engine(shared_flows)
    box = {}
    proc = _viewer(eng, "u", None, 2.0, box)
    eng.sim.run(until=proc)
    eng.sim.run(until=eng.sim.now + 1.0)
    assert box["reply"].msg_type == "stream-disabled"
    assert box["reply"].body["was_active"]
    comp = box["comp"]
    log = comp.log
    # Audio played fully; video stopped around the disable instant.
    a_frames = log.summary("A")["frames"]
    v_frames = log.summary("V")["frames"]
    assert a_frames > 250  # ~6 s at 50 fps
    assert 0 < v_frames < 60  # ~<2.2 s at 25 fps
    assert "V" in comp.scheduler._disabled
    # Server stopped transmitting the stream: the leg is deregistered,
    # its pump stopped, its sender closed (the carrier relay with it
    # when the leg was the shared pump's last) and the ports are back
    # with their node's allocator.
    vid_ms = eng.servers["srv1"].media_servers["vidsrv"]
    pump = box["pump"]
    assert (box["session_id"], "V") not in vid_ms.streams
    assert not pump.alive
    assert pump.frames_sent < 60
    unbound_on = {node_id for node_id, _port in box["unbound"]}
    assert len(box["unbound"]) == (2 if shared_flows else 1)
    assert unbound_on == {"router" if shared_flows else vid_ms.node_id}
    for node_id in unbound_on:
        assert eng.network.node(node_id).ports.allocated("media") == 0


def test_disable_stream_end_to_end():
    _check_disable_stream_end_to_end(shared_flows=False)


def test_disable_stream_end_to_end_shared_flows():
    _check_disable_stream_end_to_end(shared_flows=True)


def test_disable_stream_leaves_the_other_shared_viewer_alone():
    """Two viewers on one shared pump: one leaving changes nothing for
    the other, and the last one out stops the pump."""
    def run(first_leaves_at):
        tracer = RecordingTracer()
        eng = _disable_engine(True, tracer)
        nodes = eng.client_nodes(2)
        boxes = ({}, {})
        procs = [_viewer(eng, "u1", nodes[0], first_leaves_at, boxes[0]),
                 _viewer(eng, "u2", nodes[1], 4.0, boxes[1])]
        eng.sim.run(until=eng.sim.all_of(procs))
        stayed = [(e.args["frame"], e.args["bytes"], e.args["seq0"])
                  for e in select(tracer, kind="rtp.send",
                                         session=boxes[1]["session_id"])
                  if e.name == "V"]
        return eng, boxes, stayed

    eng, boxes, stayed = run(first_leaves_at=2.0)
    pump = boxes[0]["pump"]
    assert boxes[1]["pump"] is pump  # one pump, two legs
    assert all(b["reply"].body["was_active"] for b in boxes)
    # ~4 s at 25 fps, untouched by the other viewer leaving at 2 s
    assert 90 < len(stayed) < 110
    assert stayed == run(first_leaves_at=None)[2]
    # the last leg leaving stopped the pump and freed the relay
    assert not pump.legs and not pump.alive
    assert pump.frames_sent == len(stayed)
    router = eng.network.node(pump.leg_node)
    assert router.ports.allocated("media") == 0
    assert not [p for p in router.bound_ports() if p >= 40_000]


def test_disable_before_start_skips_stream():
    from repro.client.presentation import PresentationScheduler, StreamBinding
    from repro.des import Simulator
    from repro.model import PresentationScenario

    sim = Simulator()
    scenario = PresentationScenario.from_markup(doc_with_two_streams(2.0))
    sched = PresentationScheduler(
        sim, scenario,
        {"A": StreamBinding("A", 8000, 0.02),
         "V": StreamBinding("V", 90_000, 0.04)},
        time_window_s=0.2,
    )
    sched.disable_stream("V")
    sched.disable_stream("I")
    # Feed only audio.
    from repro.media.types import Frame, FrameKind

    for i in range(101):
        sched.buffer_for("A").push(Frame("A", seq=i, media_time=i * 160,
                                         duration=160, size_bytes=160,
                                         kind=FrameKind.SAMPLE))
    done = sched.start()
    sim.run(until=done)
    assert sched.log.summary("V")["frames"] == 0
    assert interval_of(sched.renderer, "I") is None  # never shown
    with pytest.raises(KeyError):
        sched.disable_stream("ZZ")


# ------------------------------------------------------------- autoplay
def chained_documents(n=3, duration=3.0):
    docs = {}
    for k in range(1, n + 1):
        b = (
            DocumentBuilder(f"Part {k}")
            .audio("audsrv:/a.au", f"A{k}", startime=0.0, duration=duration)
        )
        if k < n:
            b.hyperlink(f"part-{k + 1}", at_time=duration)
        docs[f"part-{k}"] = (serialize(b.build()), "course")
    return docs


def test_autoplay_follows_timed_links():
    eng = ServiceEngine()
    eng.add_server("srv1", documents=chained_documents(3))
    visits = eng.orchestrator.run_autoplay_sequence("srv1", "part-1")
    assert [v["document"] for v in visits] == ["part-1", "part-2", "part-3"]
    assert visits[-1]["history"] == ["part-1", "part-2", "part-3"]
    # Every part actually played audio frames.
    assert all(v["frames"] > 100 for v in visits)


def test_autoplay_interrupts_when_link_fires_early():
    eng = ServiceEngine()
    docs = {
        "long": (serialize(
            DocumentBuilder("Long")
            .audio("audsrv:/a.au", "A", startime=0.0, duration=30.0)
            .hyperlink("short", at_time=3.0)  # fires long before the end
            .build()), "x"),
        "short": (serialize(
            DocumentBuilder("Short")
            .audio("audsrv:/a.au", "B", startime=0.0, duration=2.0)
            .build()), "x"),
    }
    eng.add_server("srv1", documents=docs)
    visits = eng.orchestrator.run_autoplay_sequence("srv1", "long", horizon_s=100.0)
    assert [v["document"] for v in visits] == ["long", "short"]
    assert visits[0]["interrupted"] is True
    assert visits[1]["interrupted"] is False
    assert eng.sim.now < 30.0  # did not sit through the long document


def test_autoplay_respects_max_documents():
    eng = ServiceEngine()
    # a 2-cycle of timed links
    docs = {
        "a": (serialize(DocumentBuilder("A")
                        .audio("audsrv:/x.au", "A", duration=1.0)
                        .hyperlink("b", at_time=1.0).build()), "x"),
        "b": (serialize(DocumentBuilder("B")
                        .audio("audsrv:/y.au", "B", duration=1.0)
                        .hyperlink("a", at_time=1.0).build()), "x"),
    }
    eng.add_server("srv1", documents=docs)
    visits = eng.orchestrator.run_autoplay_sequence("srv1", "a", max_documents=5)
    assert len(visits) == 5
    assert [v["document"] for v in visits] == ["a", "b", "a", "b", "a"]
