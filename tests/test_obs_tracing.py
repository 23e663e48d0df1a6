"""Observability subsystem: tracer, exporters, and the reconciliation
invariant across a traced population run."""

from __future__ import annotations

import json

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.des import Simulator
from repro.faults.scenarios import SCENARIOS, populate
from repro.net import Network, Packet
from repro.obs import (
    RecordingTracer,
    TraceEvent,
    Tracer,
    read_jsonl,
    summarize_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from tests.helpers import select


def traced_engine(seed=7, tracer=None, **kw):
    eng = ServiceEngine(EngineConfig(seed=seed, **kw), tracer=tracer)
    eng.add_server("srv1", documents={"doc": (av_markup(4.0), "x")})
    return eng


# -- tracer -----------------------------------------------------------------

def test_noop_tracer_is_disabled_and_silent():
    t = Tracer()
    assert t.enabled is False
    t.emit(0.0, "kernel.event", "x")
    t.span_begin(0.0, "session", "s")
    t.span_end(1.0, "session", "s")  # all no-ops


def test_recording_tracer_counts_every_emit():
    t = RecordingTracer()
    t.emit(0.0, "link.drop", "a->b", node="a")
    t.emit(1.0, "link.drop", "a->b", node="a")
    t.emit(2.0, "qos.grade", "v1", session="sess-1", action="degrade")
    assert len(t) == 3
    assert t.kind_counts() == {"link.drop": 2, "qos.grade": 1}
    assert select(t, kind="link.drop") == t.events[:2]


def test_empty_recording_tracer_is_truthy():
    """``__len__`` alone would make ``if tracer:`` drop a fresh tracer."""
    t = RecordingTracer()
    assert len(t) == 0
    assert t


# -- exporters ---------------------------------------------------------------

def test_jsonl_round_trip(tmp_path):
    events = [
        TraceEvent(0.5, "link.drop", "a->b", node="a",
                   args={"reason": "queue"}),
        TraceEvent(1.0, "session", "sess-1", phase="B", session="sess-1"),
    ]
    path = tmp_path / "t.jsonl"
    assert write_jsonl(events, path) == 2
    back = read_jsonl(path)
    assert back == events


def test_chrome_trace_tracks_and_instants():
    events = [
        TraceEvent(1.0, "session", "sess-1", phase="B", session="sess-1"),
        TraceEvent(2.0, "session", "sess-1", phase="E", session="sess-1"),
        TraceEvent(1.5, "link.drop", "a->b", node="a"),
        TraceEvent(0.0, "kernel.event", "Timeout"),
    ]
    doc = to_chrome_trace(events)
    meta = [r for r in doc["traceEvents"] if r["ph"] == "M"]
    records = [r for r in doc["traceEvents"] if r["ph"] != "M"]
    # one thread-name row per distinct track
    assert {m["args"]["name"] for m in meta} == \
        {"sess-1", "node:a", "sim:kernel"}
    assert len(records) == 4
    span_b = next(r for r in records if r["ph"] == "B")
    assert span_b["ts"] == 1.0e6
    instant = next(r for r in records if r["cat"] == "link.drop")
    assert instant["ph"] == "i" and instant["s"] == "t"


# -- end-to-end: traced population run ---------------------------------------

def test_traced_population_reconciles_and_exports(tmp_path):
    tracer = RecordingTracer()
    eng = traced_engine(tracer=tracer)
    pop = eng.orchestrator.run_population(3, "srv1", "doc", stagger_s=0.25)
    assert len(pop.completed()) == 3

    # JSONL export reconciles with the tracer's per-kind counts.
    jl = tmp_path / "trace.jsonl"
    n = write_jsonl(tracer.events, jl)
    assert n == len(tracer.events) > 0
    events = read_jsonl(jl)
    counts: dict[str, int] = {}
    for e in events:
        counts[e.kind] = counts.get(e.kind, 0) + 1
    assert counts == tracer.kind_counts()

    # Chrome trace carries every event (plus metadata rows).
    cj = tmp_path / "trace.json"
    write_chrome_trace(tracer.events, cj)
    doc = json.loads(cj.read_text())
    records = [r for r in doc["traceEvents"] if r["ph"] != "M"]
    assert len(records) == len(events)

    # Every session opened and closed its span, the kernel's own count
    # is the tracer's, and none of it rode along on the results.
    assert counts["session"] == 2 * len(pop)  # B + E span edges
    assert counts["kernel.event"] == eng.sim.events_fired
    assert sum(counts.values()) == len(events)
    assert "metrics" not in pop.to_dict()
    for o in pop:
        assert "metrics" not in o.result.to_dict()


def test_trace_covers_every_layer():
    tracer = RecordingTracer()
    eng = traced_engine(tracer=tracer, loss_p_gb=0.05, loss_bad=0.3)
    eng.orchestrator.run_population(2, "srv1", "doc", stagger_s=0.2)
    kinds = set(tracer.kind_counts())
    for expected in ("kernel.event", "process.spawn", "process.finish",
                     "link.enqueue", "net.deliver", "channel.message",
                     "flow.plan", "flow.schedule", "qos.stream",
                     "playout.start", "playout.stop",
                     "session", "workload", "population"):
        assert expected in kinds, f"missing {expected}: {sorted(kinds)}"

    # ...and the counts are exact where they can be said in one line: on
    # a bare 3-hop path every packet is enqueued once per hop and
    # delivered once, the sender is the only process, and each Timeout
    # it waits on is a kernel.event.
    tracer = RecordingTracer()
    sim = Simulator()
    sim.set_tracer(tracer)
    net = Network(sim)
    for node in ("a", "r1", "r2", "b"):
        net.add_node(node)
    for hop in (("a", "r1"), ("r1", "r2"), ("r2", "b")):
        net.add_duplex_link(*hop, 100e6, 0.001)
    net.node("b").bind(1, lambda pkt: None)
    packets = 50

    def sender():
        for seq in range(packets):
            net.send(Packet(src="a", dst="b", size_bytes=1000,
                            protocol="UDP", flow_id="f", dst_port=1,
                            seq=seq))
            yield sim.timeout(1e-4)

    sim.process(sender())
    sim.run()
    counts = tracer.kind_counts()
    assert counts["net.deliver"] == packets
    assert counts["link.enqueue"] == 3 * packets
    assert counts["kernel.event"] >= packets
    assert counts["process.spawn"] == counts["process.finish"] == 1


def test_tracing_does_not_perturb_the_simulation():
    base = traced_engine(seed=5).orchestrator.run_full_session(
        "srv1", "doc")
    traced = traced_engine(
        seed=5, tracer=RecordingTracer()
    ).orchestrator.run_full_session("srv1", "doc")
    assert traced.to_dict() == base.to_dict()


def test_two_identical_traced_runs_in_one_process_write_the_same_trace(
        tmp_path):
    """Nothing that names a flow counts across engines: the second run's
    control channels are ``ctl-1..3`` again, not ``ctl-4..6``."""
    written = []
    for run in range(2):
        tracer = RecordingTracer()
        populate(SCENARIOS["population_clean"], 3, 7, tracer=tracer)
        path = tmp_path / f"run{run}.jsonl"
        write_jsonl(tracer.events, path)
        written.append(path.read_bytes())
    assert b'"ctl-1:c->s"' in written[0]
    assert written[0] == written[1]


def test_untraced_engine_has_tracing_off():
    eng = traced_engine()
    assert eng.sim._tracing is False
    assert eng.tracer is None


# -- summaries ----------------------------------------------------------------

def test_summarize_trace_sections():
    tracer = RecordingTracer()
    eng = traced_engine(tracer=tracer)
    eng.orchestrator.run_population(2, "srv1", "doc", stagger_s=0.2)
    sections = summarize_trace(tracer.events)
    titles = [s["title"] for s in sections]
    assert titles[0].startswith("Top event kinds")
    assert "Session timelines" in titles
    timeline = next(s for s in sections if s["title"] == "Session timelines")
    assert len(timeline["rows"]) == 2
    for row in timeline["rows"]:
        assert row[0].startswith("sess-")
        assert row[1].startswith("client")
