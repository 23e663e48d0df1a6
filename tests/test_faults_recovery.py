"""End-to-end fault injection: failover, retry, determinism, teardown."""

import json
import os

import pytest

import repro.obs.bench as bench
from repro.__main__ import main
from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.faults import FaultPlan, ServerCrashFault, population_digest
from repro.faults.digest import canonical_json
from repro.faults.scenarios import chaos_markup
from repro.net.link import Link
from repro.obs.bench import SCENARIOS, run_scenario
from repro.obs.flightrec import FlightRecorder
from repro.obs.tracer import RecordingTracer
from repro.server.accounts import SubscriptionForm
from tests.helpers import select

#: the one checked-in reference store
STORE = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                     "baseline")


# -- acceptance: crash failover saves the population --------------------------

def test_crash_failover_saves_most_sessions():
    run = run_scenario("crash", smoke=True)
    a = run.artifact
    assert a["sessions"] == 4
    assert a["completed"] == a["sessions"]
    # >= 80% of sessions must actually deliver their media via failover
    assert a["delivered"] >= 0.8 * a["sessions"]
    assert a["recoveries"] > 0
    recovery = a["service"]["recovery"]
    assert recovery["detections"] >= 1
    assert recovery["streams_failed_over"] > 0
    assert recovery["streams_lost"] == 0
    assert recovery["sessions_saved"] == a["sessions"]
    # per-session recovery counts surface on SessionResult
    assert any(o.result.recoveries > 0 for o in run.population)


def test_crash_without_recovery_ruins_delivery():
    run = run_scenario("crash", smoke=True, recovery=False, retry=False)
    a = run.artifact
    assert a["delivered"] <= 0.2 * a["sessions"]
    assert a["recoveries"] == 0


def test_time_to_recover_lands_in_metrics_and_trace():
    """The watchdog's own latency lists feed the service report on an
    unrecorded run; a recording says the same, event by event."""
    recovery = run_scenario("crash", smoke=True).artifact["service"]["recovery"]
    assert recovery["time_to_detect_s"]["count"] == recovery["detections"] == 1
    assert recovery["time_to_detect_s"]["max"] == 0.5
    assert (recovery["time_to_recover_s"]["count"]
            == recovery["streams_failed_over"] == 8)
    recorder = FlightRecorder()  # the control tier is enough
    run_scenario("crash", smoke=True, tracer=recorder)
    assert [e.args["t_detect_s"]
            for e in select(recorder, "recovery.detect")] == [0.5]
    recovered = [e.args["t_recover_s"]
                 for e in select(recorder, "recovery.stream")]
    assert len(recovered) == 8
    assert sum(recovered) == recovery["time_to_recover_s"]["sum"]


# -- acceptance: determinism --------------------------------------------------

def test_same_seed_same_plan_identical_results():
    d1, d2 = (run_scenario("crash", smoke=True).digest for _ in range(2))
    assert d1 == d2


def test_empty_plan_is_inert():
    def build(install):
        eng = ServiceEngine(EngineConfig(seed=31))
        eng.add_server("srv1",
                       documents={"doc": (chaos_markup(2.0), "t")})
        if install:
            eng.install_faults(FaultPlan())
        pop = eng.orchestrator.run_population(2, "srv1", "doc",
                                              stagger_s=0.3)
        return population_digest(pop)

    assert build(False) == build(True)


# -- control partition + retry ------------------------------------------------

def test_partition_rides_out_on_retry():
    run = run_scenario("partition", smoke=True)
    a = run.artifact
    assert a["completed"] == a["sessions"]
    assert a["retries"] > 0
    assert any(o.result.retries > 0 for o in run.population)


def test_partition_without_retry_strands_sessions():
    run = run_scenario("partition", smoke=True, retry=False)
    a = run.artifact
    assert a["completed"] < a["sessions"]


# -- link flap: graceful degradation ------------------------------------------

def test_link_flap_degrades_but_completes():
    run = run_scenario("flap", smoke=True)
    a = run.artifact
    assert a["completed"] == a["sessions"]
    # the outage shows up as playout gaps, not hung sessions
    assert any(o.result.total_gaps() > 0 for o in run.population)


# -- combo ---------------------------------------------------------------------

@pytest.mark.parametrize("name", ["crash", "flap", "partition"])
def test_a_result_document_does_not_depend_on_who_watched(name,
                                                          monkeypatch):
    """A fault run's whole document, byte for byte, untraced, under a
    control-tier ring and under a detail tracer. Untraced and under the
    ring, a link plans packets across the next link it alone feeds;
    under the detail tracer nothing plans. A crash, a flapping server
    link and a partitioned control path each take plans back mid-run."""
    # per planned arrival at a client: does another entry wait at its
    # instant? Only such a tie can fire in another order than a run that
    # does not plan fires it (tests/test_net_link_oracle.py)
    waiting = []

    def propagated(link, pkt, arrival=None, plain=Link._propagated):
        if arrival is not None:
            heap = link.sim._heap
            waiting.append(bool(heap) and heap[0][0] == link.sim._now)
        plain(link, pkt, arrival)

    documents = {}
    for who, tracer in (("untraced", None), ("control", FlightRecorder()),
                        ("detail", RecordingTracer())):
        with monkeypatch.context() as patch:
            if who == "untraced":
                patch.setattr(Link, "_propagated", propagated)
            documents[who] = canonical_json(run_scenario(
                name, smoke=True, tracer=tracer).population.to_dict())
    assert waiting and not any(waiting)
    assert documents["control"] == documents["untraced"]
    assert documents["detail"] == documents["untraced"]


def test_combo_scenario_runs_deterministically():
    d1, d2 = (run_scenario("combo", smoke=True).digest for _ in range(2))
    assert d1 == d2


# -- the gate: shipped SLO spec plus the scenario's reference -----------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_chaos_smoke_holds_its_spec(name, tmp_path, capsys):
    """A chaos run is a bench run with a fault plan: every scenario of
    the one table, its plan empty or not, holds its gate."""
    assert main(["bench", "--scenario", name, "--smoke",
                 "--out", str(tmp_path), "--baseline", STORE]) == 0
    assert "violations: 0" in capsys.readouterr().out


def _failed_rules(out):
    (gate,) = [s for s in json.loads(out)["sections"]
               if s["title"].startswith("Gate")]
    return [row[1].split()[0] for row in gate["rows"] if row[3] == "FAIL"]


def test_control_arm_fails_its_delivery_floor(tmp_path, capsys):
    assert main(["bench", "--scenario", "crash", "--smoke", "--no-recovery",
                 "--out", str(tmp_path), "--baseline", STORE,
                 "--json"]) == 1
    # the shipped floor and the reference's own delivered_ratio rule
    failed = _failed_rules(capsys.readouterr().out)
    assert failed.count("delivered_ratio") == 2


def test_check_determinism_replays_the_reported_run(monkeypatch, tmp_path,
                                                    capsys):
    calls = []

    def spy(name, **options):
        calls.append(options)
        return run_scenario(name, **options)

    monkeypatch.setattr(bench, "run_scenario", spy)
    main(["bench", "--scenario", "crash", "--smoke", "--no-recovery",
          "--check-determinism", "--out", str(tmp_path), "--baseline", STORE,
          "--json"])
    (gate,) = [s for s in json.loads(capsys.readouterr().out)["sections"]
               if s["title"].startswith("Gate")]
    assert ["crash", "replay digest == digest"] in [
        row[:2] for row in gate["rows"] if row[3] == "PASS"]
    assert len(calls) == 2
    assert all(c["recovery"] is False for c in calls)


# -- teardown satellites -------------------------------------------------------

def build_engine(grace=30.0, seed=7):
    eng = ServiceEngine(EngineConfig(seed=seed, suspend_grace_s=grace))
    eng.add_server("srv1", documents={"doc": (chaos_markup(3.0), "t")})
    return eng


def test_rtcp_port_released_and_reused_across_sessions():
    eng = build_engine()
    server = eng.servers["srv1"]
    ports = eng.network.node(server.node_id).ports
    r1 = eng.orchestrator.run_full_session("srv1", "doc")
    assert r1.completed
    assert ports.allocated("rtcp") == 0
    r2 = eng.orchestrator.run_full_session("srv1", "doc", user_id="user2")
    assert r2.completed
    assert ports.allocated("rtcp") == 0


def test_suspend_grace_expiry_reclaims_resources():
    eng = build_engine(grace=2.0)
    server = eng.servers["srv1"]
    ports = eng.network.node(server.node_id).ports
    client, handler = eng.open_session("srv1", "ada", "pw")

    def script():
        resp = yield from client.connect()
        if resp.msg_type == "subscribe-required":
            resp = yield from client.subscribe(SubscriptionForm(
                real_name="Ada", address="x", email="ada@example.org"))
        assert resp.msg_type == "connect-ok"
        resp = yield from client.request_document("doc")
        comp = eng.build_client_composition(resp.body["markup"], server)
        ready = yield from client.send_ready(comp.rtp_ports,
                                             comp.discrete_ports)
        assert ready.msg_type == "streams-started"
        resp = yield from client.suspend_for_remote_link()
        assert resp.msg_type == "suspended"

    proc = eng.sim.process(script())
    eng.sim.run(until=proc)
    assert ports.allocated("rtcp") == 1
    assert handler.session_id in server.session_handlers

    # Grace passes with no reattach: everything must be reclaimed.
    eng.sim.run(until=eng.sim.timeout(5.0))
    assert handler.session is None
    assert handler.rtcp_sink is None
    assert ports.allocated("rtcp") == 0
    assert handler.session_id not in server.session_handlers
    assert handler.session_id not in server.sessions
    assert client.suspend_expired


def test_suspend_resume_within_grace_keeps_resources():
    eng = build_engine(grace=10.0)
    server = eng.servers["srv1"]
    ports = eng.network.node(server.node_id).ports
    client, handler = eng.open_session("srv1", "ada", "pw")

    def script():
        resp = yield from client.connect()
        if resp.msg_type == "subscribe-required":
            resp = yield from client.subscribe(SubscriptionForm(
                real_name="Ada", address="x", email="ada@example.org"))
        resp = yield from client.request_document("doc")
        comp = eng.build_client_composition(resp.body["markup"], server)
        yield from client.send_ready(comp.rtp_ports, comp.discrete_ports)
        yield from client.suspend_for_remote_link()
        yield eng.sim.timeout(1.0)
        resp = yield from client.resume_connection()
        assert resp.msg_type == "resumed-conn"

    proc = eng.sim.process(script())
    eng.sim.run(until=proc)
    eng.sim.run(until=eng.sim.timeout(3.0))
    assert handler.session is not None
    assert ports.allocated("rtcp") == 1
    assert handler.session_id in server.session_handlers


# -- failover keeps the stream position honest --------------------------------

def test_failover_resumes_realtime_aligned():
    run = run_scenario("crash", smoke=True)
    # Recovered sessions lose roughly the outage window, never the
    # whole remainder of the presentation.
    for outcome in run.population:
        if outcome.result.recoveries == 0:
            continue
        assert outcome.result.total_gap_ratio() < 0.5
        for stream in outcome.result.streams.values():
            assert stream.frames_played > 0


# -- crash x shared flows: one registry, so a crash sees every stream ---------

def _crash_run(shared_flows, recovery, tracer=None, before_crash=None):
    """Four viewers at stagger 0, the media server crashing at t=3."""
    eng = ServiceEngine(EngineConfig(seed=23, shared_flows=shared_flows),
                        tracer=tracer)
    if before_crash is not None:
        eng.sim.call_later(2.9, before_crash, eng)
    eng.add_server("srv1", documents={"doc": (chaos_markup(6.0), "chaos")})
    if recovery:
        eng.add_media_replica("srv1", "media")
    eng.install_faults(
        FaultPlan((ServerCrashFault(server="srv1", media_server="media",
                                    at=3.0),)),
        recovery=recovery)
    pop = eng.orchestrator.run_population(4, "srv1", "doc", stagger_s=0.0)
    return eng, pop


def _sent_times(eng, session_id):
    """Send instants on one session's page of the frame ledger."""
    return list(eng.network.frames_sent[session_id])[2::3]


@pytest.mark.parametrize("shared_flows", [False, True])
def test_a_crashed_pump_finishes(shared_flows):
    """A stopped pump ends like one whose object ran out: ``finished``
    triggers once, with ``frames_sent``, so every ``sflow.start`` has
    its ``sflow.finish``."""
    for recovery in (False, True):
        tracer = RecordingTracer()
        pumps, keys = [], []

        def grab(eng):
            ms = eng.servers["srv1"].media_servers["media"]
            pumps.extend(dict.fromkeys(ms.streams.values()))
            keys.extend(sorted(ms.streams))

        eng, _pop = _crash_run(shared_flows, recovery, tracer,
                               before_crash=grab)
        assert pumps and not any(pump.legs or pump.alive for pump in pumps)
        for pump in pumps:
            assert pump.finished.triggered
            assert pump.finished.value == pump.frames_sent > 0
        if not recovery:
            ms = eng.servers["srv1"].media_servers["media"]
            assert [s.origin.key for s in ms.wreckage] == keys
        if shared_flows:
            kinds = tracer.kind_counts()
            assert (kinds["sflow.start"] == kinds["sflow.finish"]
                    >= len(pumps))
            finishes = [e for e in select(tracer, kind="sflow.finish")
                        if e.time == 3.0]
            assert len(finishes) == len(pumps)


@pytest.mark.parametrize("shared_flows", [False, True])
def test_crash_reaches_shared_and_unicast_streams_alike(shared_flows):
    # Recovery off: a crashed server sends nothing more.
    eng, pop = _crash_run(shared_flows, recovery=False)
    assert len(pop) == 4
    assert eng.servers["srv1"].media_servers["media"].failed
    for outcome in pop:
        sent = _sent_times(eng, outcome.session_id)
        assert sent and max(sent) <= 3.0
        played = sum(s.frames_played
                     for s in outcome.result.streams.values())
        assert 0 < played < 300  # 450 when nothing crashes

    # Recovery on: every viewer leg is snapshotted and failed over.
    tracer = RecordingTracer()
    eng, pop = _crash_run(shared_flows, recovery=True, tracer=tracer)
    watchdog = eng.watchdogs["srv1"]
    assert len(watchdog.sessions_saved) == 4
    assert watchdog.streams_failed_over == 8
    assert watchdog.streams_lost == 0
    # Each leg's replacement sender starts at its snapshot's next_seq:
    # across the switch, a frame's first packet follows the last sent.
    legs = {}
    for e in select(tracer, kind="rtp.send"):
        legs.setdefault((e.session, e.name), []).append(
            (e.time, e.args["seq0"], e.args["packets"]))
    assert len(legs) == 8
    for sends in legs.values():
        assert sends[0][0] < 3.0 < sends[-1][0]
        for (_t, seq0, packets), (_t2, next_seq0, _p) in zip(sends,
                                                             sends[1:]):
            assert next_seq0 == seq0 + packets
