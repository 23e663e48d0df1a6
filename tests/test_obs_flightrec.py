"""Flight recorder: ring bounds, triggers, dumps, the full-detail form."""

import json

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.obs.bench import run_scenario
from repro.obs import read_jsonl, summarize_trace
from repro.obs import flightrec
from repro.obs.flightrec import TRIGGER_KINDS, FlightRecorder
from repro.obs.tracer import RecordingTracer


def test_ring_is_bounded_and_counts_drops():
    rec = FlightRecorder(max_events=3)
    for t in range(5):
        rec.emit(float(t), "session", "s")
    assert len(rec.events) == 3
    assert [e.time for e in rec.events] == [2.0, 3.0, 4.0]
    assert sum(rec.kind_counts().values()) - len(rec.events) == 2  # shed
    # counted before the ring sheds, whichever hook point an event
    # came through
    rec.span_begin(5.0, "workload", "w")
    rec.span_end(6.0, "workload", "w")
    assert rec.kind_counts() == {"session": 5, "workload": 2}
    assert sum(rec.kind_counts().values()) == 7


def test_window_keeps_trailing_span_only(monkeypatch):
    monkeypatch.setattr(flightrec, "WINDOW_S", 2.0)
    rec = FlightRecorder()
    for t in (0.0, 5.0, 8.5, 9.0, 10.0):
        rec.emit(t, "session", "s")
    assert [e.time for e in rec.window()] == [8.5, 9.0, 10.0]
    monkeypatch.setattr(flightrec, "WINDOW_S", 0.5)
    assert [e.time for e in rec.window()] == [10.0]


def test_standalone_recorder_stays_on_control_tier():
    assert FlightRecorder().detail is False
    # Capacity decides the tier: only an unbounded recorder — a
    # complete recording with incident dumps on top — takes the
    # per-packet firehose.
    assert FlightRecorder(max_events=100_000).detail is False
    assert FlightRecorder(max_events=None).detail is True


def test_explicit_dump_roundtrips_through_trace_tooling(tmp_path):
    rec = FlightRecorder(dump_path=str(tmp_path / "dump.jsonl"))
    rec.emit(1.0, "session", "open", session="s1")
    rec.emit(2.0, "admission.accept", "srv1", session="s1")
    path = rec.dump()
    events = read_jsonl(path)
    assert [e.kind for e in events] == ["session", "admission.accept"]
    assert any(summarize_trace(events))
    assert rec.last_dump["trigger"] == "manual"
    assert rec.last_dump["events"] == 2


def test_dump_without_path_raises():
    with pytest.raises(ValueError):
        FlightRecorder().dump()


def test_full_detail_recorder_is_a_complete_recording():
    rec = FlightRecorder(max_events=None)
    assert isinstance(rec, RecordingTracer)
    eng = ServiceEngine(EngineConfig(seed=7), tracer=rec)
    eng.add_server("srv1",
                   documents={"doc": (av_markup(1.0, False), "t")})
    pop = eng.orchestrator.run_population(1, "srv1", "doc")
    assert len(pop.completed()) == 1
    # The one recorder took the full firehose, unbounded...
    assert rec.kind_counts().get("rtp.recv", 0) > 0
    # ...into its own store and per-kind counts, which reconcile...
    assert sum(rec.kind_counts().values()) == len(rec.events)
    # (the kernel counts its own events, and agrees with the emits)
    assert eng.sim.events_fired == rec.kind_counts()["kernel.event"]
    # ...and the session is scored as on any other run.
    assert pop.qoe_summary()["sessions"] == 1


def test_control_tier_recorder_scores_results_without_snapshots():
    """The ring never sees the frames; the score comes from the
    session's endpoints and needs none of them."""
    rec = FlightRecorder()
    eng = ServiceEngine(EngineConfig(seed=7), tracer=rec)
    eng.add_server("srv1",
                   documents={"doc": (av_markup(1.0, False), "t")})
    pop = eng.orchestrator.run_population(1, "srv1", "doc")
    assert "session" in rec.kind_counts()
    assert "rtp.recv" not in rec.kind_counts()
    # the ring holds the control plane and none of the detail firehose
    ring_kinds = {e.kind for e in rec.events}
    assert {"session", "admission.accept"} <= ring_kinds
    assert not ring_kinds & {"kernel.event", "link.enqueue", "rtp.recv"}
    assert pop.outcomes[0].result.qoe["frames_played"] > 0


def test_recording_the_run_does_not_perturb_it(tmp_path):
    plain = run_scenario("crash", smoke=True)
    recorded = run_scenario("crash", smoke=True,
                         flight_dump=str(tmp_path / "f.jsonl"))
    assert recorded.digest == plain.digest


def test_chaos_crash_auto_dumps_fault_window(tmp_path):
    """The acceptance path: crash run dumps a parseable fault window."""
    dump = str(tmp_path / "FLIGHT_crash.jsonl")
    run = run_scenario("crash", smoke=True, flight_dump=dump)
    meta = run.artifact["flight_dump"]
    assert meta["path"] == dump
    assert meta["trigger"] in TRIGGER_KINDS
    events = read_jsonl(dump)
    assert len(events) == meta["events"] > 0
    # The injected fault is inside the dumped window...
    assert any(e.kind == "fault.crash" for e in events)
    # ...the window honours its span...
    times = [e.time for e in events]
    assert max(times) - min(times) <= 30.0
    # ...and the standard summarizer parses the dump unchanged.
    sections = summarize_trace(events)
    assert any(s["title"].startswith("Top event kinds")
               for s in sections)


def test_slo_violation_triggers_dump_via_cli(tmp_path, capsys,
                                            monkeypatch):
    from repro.__main__ import main
    from repro.obs import slo

    monkeypatch.setitem(slo.DEFAULT_SLOS, "none", ("qoe_p50 >= 101",))
    dump = tmp_path / "FLIGHT_slo.jsonl"
    out = tmp_path / "BENCH_none.json"
    # Scenario "none" injects no faults; the violated rule is the
    # only incident, and it must still produce forensics.
    assert main(["bench", "--scenario", "none", "--smoke",
                 "--flight-dump", str(dump), "--out", str(tmp_path)]) == 1
    assert "flight_dump_trigger: slo.violation" in capsys.readouterr().out
    assert read_jsonl(str(dump))
    # the artifact names the dump the violation wrote
    assert json.loads(out.read_text())["flight_dump"]["trigger"] \
        == "slo.violation"


def test_auto_dump_fires_once_per_run(tmp_path, monkeypatch):
    monkeypatch.setattr(flightrec, "TRIGGER_KINDS", frozenset({"fault.link"}))
    rec = FlightRecorder(dump_path=str(tmp_path / "d.jsonl"))
    rec.emit(1.0, "fault.link", "router")
    first = dict(rec.last_dump)
    rec.emit(2.0, "fault.link", "router")
    assert rec.last_dump == first
    assert first["trigger"] == "fault.link"
