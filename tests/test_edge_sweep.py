"""Edge-case sweep across modules (small behaviours not covered by
the per-module suites) and result export."""

import json

import pytest

from repro.core import EngineConfig, ServiceEngine, TrafficConfig
from repro.core.experiments import av_markup
from repro.des import Simulator
from repro.hml import DocumentBuilder, tokenize
from repro.hml.tokens import TokenKind
from repro.net import Network


# ------------------------------------------------------------- kernel
def test_call_later_fires_once_at_delay():
    sim = Simulator()
    fired = []
    sim.call_later(2.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]


def test_call_later_ordering_with_processes():
    sim = Simulator()
    order = []
    sim.call_later(1.0, lambda: order.append("cb"))

    def proc():
        yield sim.timeout(1.0)
        order.append("proc")

    sim.process(proc())
    sim.run()
    # call_later was scheduled first at the same instant.
    assert order == ["cb", "proc"]


def test_run_until_triggered_event_returns_value():
    sim = Simulator()
    ev = sim.event()
    sim.call_later(1.0, lambda: ev.succeed("val"))
    assert sim.run(until=ev) == "val"


# ------------------------------------------------------------- lexer
def test_lexer_column_positions():
    toks = tokenize("<TITLE> abc </TITLE><PAR>")
    par = [t for t in toks if t.value == "PAR"][0]
    assert par.column > 1
    assert toks[0].column == 1


def test_lexer_eof_token_terminates():
    toks = tokenize("")
    assert len(toks) == 1 and toks[0].kind is TokenKind.EOF


# ------------------------------------------------------------- node
def test_node_unbind_then_rebind():
    sim = Simulator()
    net = Network(sim)
    node = net.add_node("n")
    node.bind(1, lambda p: None)
    with pytest.raises(ValueError):
        node.bind(1, lambda p: None)
    node.unbind(1)
    node.bind(1, lambda p: None)  # rebind ok
    node.unbind(99)  # unknown port: no-op


# ------------------------------------------------------------- playout
def test_playout_cancel_before_any_frame():
    from repro.client import MediaBuffer, PlayoutEventLog
    from repro.client.playout import PlayoutProcess
    from repro.media import MediaType
    from repro.model.sync import PlayoutEntry

    sim = Simulator()
    buf = MediaBuffer("v", 90_000, time_window_s=0.4)
    entry = PlayoutEntry("v", MediaType.VIDEO, "s", 0.0, 10.0)
    p = PlayoutProcess(sim, entry, buf, PlayoutEventLog(), 0.04,
                       start_offset_s=5.0)
    p.cancel("user closed")
    sim.run(until=p.finished)
    assert p.finished.value == 0.0
    assert sim.now < 5.0


# ------------------------------------------------------------- store ids
def test_media_store_filtering_by_type():
    from repro.des import RngRegistry
    from repro.media import (
        ContinuousMediaObject, DiscreteMediaObject, MediaStore, MediaType,
        default_registry,
    )

    store = MediaStore(default_registry(), RngRegistry(seed=1))
    store.add(DiscreteMediaObject("t", MediaType.TEXT, "plain", size_bytes=5))
    store.add(ContinuousMediaObject("a", MediaType.AUDIO, "PCM-family",
                                    duration_s=1.0))
    assert [o for o in store.ids()
            if store.get(o).media_type is MediaType.TEXT] == ["t"]
    assert not [o for o in store.ids()
                if store.get(o).media_type is MediaType.VIDEO]


# ------------------------------------------------------------- export
def test_session_result_to_dict_json_roundtrip():
    cfg = EngineConfig(
        access_rate_bps=2.5e6,
        traffic=[TrafficConfig(kind="poisson", rate_bps=1.2e6,
                               start_at=2.0, stop_at=6.0)],
    )
    eng = ServiceEngine(cfg)
    eng.add_server("srv1", documents={"doc": (av_markup(8.0), "x")})
    result = eng.orchestrator.run_full_session("srv1", "doc")
    d = result.to_dict()
    text = json.dumps(d)  # fully JSON-serializable
    back = json.loads(text)
    assert back["document"] == "doc"
    assert back["completed"] is True
    assert set(back["streams"]) == {"A", "V"}
    assert back["streams"]["V"]["frames_played"] > 0
    assert "sync:A+V" in back["skew"]
    assert isinstance(back["grading"]["decisions"], list)
    assert back["protocol_bytes"]["RTP"] > 0


def test_flow_discrete_fetch_ordering():
    from repro.media import default_registry
    from repro.model import PresentationScenario
    from repro.server import FlowScheduler

    doc = (
        DocumentBuilder("t")
        .image("s:/late.gif", "LATE", startime=10.0, duration=1.0)
        .image("s:/early.gif", "EARLY", startime=0.0, duration=1.0)
        .build()
    )
    flow = FlowScheduler(default_registry()).compute(
        PresentationScenario.from_document(doc)
    )
    ids = [f.stream_id for f in flow.discrete()]
    # Both fetch eagerly; ties broken by name, stable and deterministic.
    assert set(ids) == {"EARLY", "LATE"}
    assert all(f.send_offset_s == 0.0 for f in flow.discrete())
