"""Tests for QoS negotiation at admission (§4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_document
from repro.analysis.scenario_rules import ScenarioSet
from repro.des import Simulator
from repro.hml import DocumentBuilder
from repro.media import MediaType, default_registry
from repro.model import build_playout_schedule, check_bandwidth
from repro.net import Network
from repro.server import (
    AccountRegistry,
    AdmissionController,
    AdmissionRequest,
    CONTRACT_CLASSES,
    FlowScheduler,
    MultimediaDatabase,
    MultimediaServer,
)
from repro.server.accounts import SubscriptionForm
from repro.server.admission import TICKET_BPS
from repro.service import ClientSession, ControlChannel, ServerSessionHandler

from tests.helpers import add_document
from tests.test_hml_roundtrip import documents

BASIC = CONTRACT_CLASSES["basic"]


def req(sid, bw, min_bw=None):
    return AdmissionRequest(session_id=sid, user_id=f"u{sid}",
                            contract=BASIC, required_bw_bps=bw,
                            min_bw_bps=min_bw)


# ------------------------------------------------------------ controller
def test_partial_admission_when_floor_fits():
    c = AdmissionController(10e6, open_fraction=1.0)
    assert c.decide(req("s1", 8e6)).admitted
    r = c.decide(req("s2", 4e6, min_bw=1e6))
    assert r.admitted and r.negotiated
    assert r.reserved_bw_bps == pytest.approx(2e6)  # the headroom
    assert r.grant_ratio == pytest.approx(0.5)
    assert "negotiated" in r.reason
    assert c.utilisation == pytest.approx(1.0)


def test_rejection_when_floor_does_not_fit():
    c = AdmissionController(10e6, open_fraction=1.0)
    c.decide(req("s1", 9.5e6))
    r = c.decide(req("s2", 4e6, min_bw=1e6))
    assert not r.admitted
    assert not r.negotiated


def test_full_admission_not_marked_negotiated():
    c = AdmissionController(10e6, open_fraction=1.0)
    r = c.decide(req("s1", 2e6, min_bw=1e6))
    assert r.admitted and not r.negotiated
    assert r.grant_ratio == 1.0


def test_min_bw_validation():
    with pytest.raises(ValueError):
        req("s", 2e6, min_bw=3e6)  # floor above request
    with pytest.raises(ValueError):
        req("s", 2e6, min_bw=0.0)


def test_release_returns_negotiated_reservation():
    c = AdmissionController(10e6, open_fraction=1.0)
    c.decide(req("s1", 8e6))
    c.decide(req("s2", 4e6, min_bw=1e6))  # granted 2e6
    c.release("s2")
    assert c.reserved_bps == pytest.approx(8e6)


# ------------------------------------------------------ renegotiation
def test_shrinking_existing_sessions_admits_newcomer():
    """[KRI 94]: renegotiate live negotiable sessions down to their
    floors to fit a newcomer."""
    regrants = []
    c = AdmissionController(10e6, open_fraction=1.0,
                            on_regrant=lambda s, bw: regrants.append((s, bw)))
    # Two negotiable sessions fill the pipe at full quality.
    assert c.decide(req("s1", 5e6, min_bw=2e6)).admitted
    assert c.decide(req("s2", 5e6, min_bw=2e6)).admitted
    assert c.utilisation == pytest.approx(1.0)
    # A third (floor 2 Mb/s) fits only by shrinking the first two.
    r = c.decide(req("s3", 5e6, min_bw=2e6))
    assert r.admitted and r.negotiated
    assert r.reserved_bw_bps == pytest.approx(2e6)
    assert c.granted_bps("s1") + c.granted_bps("s2") == pytest.approx(8e6)
    assert c.granted_bps("s1") == pytest.approx(4e6)  # proportional
    assert c.utilisation == pytest.approx(1.0)
    assert regrants and all(bw < 5e6 for _, bw in regrants)
    assert c.renegotiations == 2


def test_fixed_sessions_never_shrunk():
    c = AdmissionController(10e6, open_fraction=1.0)
    c.decide(req("fixed", 8e6))  # no floor: not negotiable
    r = c.decide(req("new", 5e6, min_bw=3e6))
    assert not r.admitted  # only 2 Mb/s headroom, nothing shrinkable
    assert c.granted_bps("fixed") == pytest.approx(8e6)


def test_departure_reexpands_shrunk_sessions():
    regrants = []
    c = AdmissionController(10e6, open_fraction=1.0,
                            on_regrant=lambda s, bw: regrants.append((s, bw)))
    c.decide(req("s1", 5e6, min_bw=2e6))
    c.decide(req("s2", 5e6, min_bw=2e6))
    c.decide(req("s3", 5e6, min_bw=2e6))  # shrinks s1/s2 to 4e6
    regrants.clear()
    c.release("s3")  # frees 2e6: s1/s2 expand back toward 5e6
    assert c.granted_bps("s1") == pytest.approx(5e6)
    assert c.granted_bps("s2") == pytest.approx(5e6)
    assert {s for s, _ in regrants} == {"s1", "s2"}


def test_newcomer_floor_beyond_all_slack_rejected():
    c = AdmissionController(10e6, open_fraction=1.0)
    c.decide(req("s1", 5e6, min_bw=4e6))
    c.decide(req("s2", 5e6, min_bw=4e6))
    # Slack = 2e6, headroom 0; floor 3e6 cannot be met.
    r = c.decide(req("s3", 5e6, min_bw=3e6))
    assert not r.admitted
    assert c.granted_bps("s1") == pytest.approx(5e6)  # untouched


def test_granted_bps_unknown_session():
    c = AdmissionController(10e6)
    with pytest.raises(KeyError):
        c.granted_bps("nope")


def test_a_document_that_costs_nothing_fits_past_the_contract_limit():
    """Gold holds more than the basic limit leaves: a basic session's
    headroom is negative, and a document without continuous media
    still fits, at no charge."""
    c = AdmissionController(10e6, open_fraction=0.7)
    c.decide(req("basic", 2e6))
    c.decide(AdmissionRequest(session_id="gold", user_id="ug",
                              contract=CONTRACT_CLASSES["gold"],
                              required_bw_bps=8e6))
    assert c.headroom_bps("basic", BASIC) == pytest.approx(-1e6)
    assert c.restate("basic", BASIC, 0.0).admitted
    assert c.granted_bps("basic") == 0.0
    assert c.reserved_bps == 8e6
    assert c.stats.requests == 2


# ------------------------------------------------------------ grade map
def test_grade_for_ratio_mapping():
    video = default_registry().get("MPEG")  # 1.5/1.0/0.75/0.5/0.25 Mb/s
    assert FlowScheduler.grade_for_ratio(video, 1.0) == 0
    assert FlowScheduler.grade_for_ratio(video, 0.70) == 1  # fits 1.0M
    assert FlowScheduler.grade_for_ratio(video, 0.5) == 2
    assert FlowScheduler.grade_for_ratio(video, 0.35) == 3
    assert FlowScheduler.grade_for_ratio(video, 0.05) == 4  # deepest rung


# ------------------------------------------------------------ protocol
#: one A/V pair: a best-grade peak (1.564 Mb/s) below the ticket
ONE_PAIR = (DocumentBuilder("AV")
            .audio_video("audsrv:/a.au", "vidsrv:/v.mpg", "A", "V",
                         startime=0.0, duration=4.0)
            .build())

#: two A/V pairs side by side: a best-grade peak above the ticket
TWO_PAIRS = (DocumentBuilder("Two pairs")
             .audio_video("audsrv:/a.au", "vidsrv:/v.mpg", "A", "V",
                          startime=0.0, duration=4.0)
             .audio_video("audsrv:/b.au", "vidsrv:/w.mpg", "B", "W",
                          startime=0.0, duration=4.0)
             .build())


def build_service(capacity, extra=None):
    sim = Simulator()
    net = Network(sim)
    net.add_node("client")
    net.add_node("host:srv1")
    net.add_duplex_link("client", "host:srv1", 20e6, 0.005)
    db = MultimediaDatabase()
    add_document(db, "doc", ONE_PAIR)
    add_document(db, "two", TWO_PAIRS)
    if extra is not None:
        add_document(db, "extra", extra)
    server = MultimediaServer(
        sim, "srv1", "host:srv1", db, AccountRegistry(),
        default_registry(), {},
        admission=AdmissionController(capacity, open_fraction=1.0),
    )
    channel = ControlChannel(net, "client", "host:srv1", base_port=10_000,
                             name="ctl-1")
    handler = ServerSessionHandler(server, channel.server, "sess-1", "client")
    client = ClientSession(sim, channel.client, "u", "pw")
    return sim, server, client, handler


def test_negotiated_connect_over_protocol():
    sim, server, client, handler = build_service(capacity=1e6)

    def script():
        resp = yield from client.connect(required_bw_bps=2e6,
                                         min_bw_bps=0.5e6)
        if resp.msg_type == "subscribe-required":
            resp = yield from client.subscribe(
                SubscriptionForm(real_name="U", address="x",
                                 email="u@e.org"),
                required_bw_bps=2e6, min_bw_bps=0.5e6)
        return resp

    proc = sim.process(script())
    resp = sim.run(until=proc)
    assert resp.msg_type == "connect-ok"
    assert resp.body["negotiated"] is True
    assert resp.body["granted_bw_bps"] == pytest.approx(1e6)
    assert server.sessions["sess-1"].grant_ratio == pytest.approx(0.5)


def test_without_floor_same_load_is_rejected():
    sim, server, client, handler = build_service(capacity=1e6)

    def script():
        resp = yield from client.connect(required_bw_bps=2e6)
        if resp.msg_type == "subscribe-required":
            resp = yield from client.subscribe(
                SubscriptionForm(real_name="U", address="x",
                                 email="u@e.org"), required_bw_bps=2e6)
        return resp

    proc = sim.process(script())
    resp = sim.run(until=proc)
    assert resp.msg_type == "connect-reject"


def test_negotiated_session_plans_degraded_flows():
    sim, server, client, handler = build_service(capacity=1e6)

    def script():
        resp = yield from client.connect(required_bw_bps=2e6,
                                         min_bw_bps=0.5e6)
        if resp.msg_type == "subscribe-required":
            resp = yield from client.subscribe(
                SubscriptionForm(real_name="U", address="x",
                                 email="u@e.org"),
                required_bw_bps=2e6, min_bw_bps=0.5e6)
        yield from client.request_document("doc")

    proc = sim.process(script())
    sim.run(until=proc)
    flow = server.plan_flows("sess-1", "doc")
    video = next(f for f in flow.continuous() if f.stream_id == "V")
    # grant_ratio 0.5 -> video starts at grade 2 (0.75 Mb/s).
    assert video.initial_grade == 2
    video_codec = default_registry().default_for(MediaType.VIDEO)
    assert video_codec.grade(2).bitrate_bps == 750_000


# ------------------------------------------------- the charge at request-doc
def open_and_request(capacity, name, min_bw_bps=None, extra=None):
    """Connect on the 2 Mb/s ticket, then request ``name``: the server,
    the ``request-doc`` reply and the grant the ticket got."""
    sim, server, client, handler = build_service(capacity, extra)
    out = {}

    def script():
        resp = yield from client.connect(min_bw_bps=min_bw_bps)
        if resp.msg_type == "subscribe-required":
            resp = yield from client.subscribe(
                SubscriptionForm(real_name="U", address="x",
                                 email="u@e.org"), min_bw_bps=min_bw_bps)
        assert resp.msg_type == "connect-ok"
        out["ticket"] = resp.body["granted_bw_bps"]
        out["reply"] = yield from client.request_document(name)

    sim.run(until=sim.process(script()))
    return server, out["reply"], out["ticket"]


def charge(doc):
    return check_bandwidth(build_playout_schedule(doc), None)


def assert_book_is_the_charges(server, expected_bps):
    book = server.admission
    assert book.reserved_bps == pytest.approx(expected_bps)
    assert book.reserved_bps == pytest.approx(
        sum(book.granted_bps(sid) for sid in server.sessions))
    assert book.stats.requests == 1  # the ticket, counted once


def test_ample_capacity_grows_the_grant_to_the_charge():
    peak = charge(TWO_PAIRS).peak_bps
    assert peak > TICKET_BPS
    server, reply, ticket = open_and_request(20e6, "two")
    assert reply.msg_type == "scenario" and ticket == TICKET_BPS
    assert server.admission.granted_bps("sess-1") == peak
    assert server.sessions["sess-1"].grant_ratio == 1.0
    assert_book_is_the_charges(server, peak)


def test_a_floor_and_tight_capacity_negotiate_the_document_down():
    verdict = charge(TWO_PAIRS)
    server, reply, ticket = open_and_request(2.5e6, "two", min_bw_bps=0.5e6)
    assert reply.msg_type == "scenario" and ticket == TICKET_BPS
    assert server.admission.granted_bps("sess-1") == 2.5e6
    ratio = server.sessions["sess-1"].grant_ratio
    assert ratio == pytest.approx(2.5e6 / verdict.peak_bps)
    flow = server.plan_flows("sess-1", "two")
    video = default_registry().default_for(MediaType.VIDEO)
    grade = FlowScheduler.grade_for_ratio(video, ratio)
    assert grade == 1  # 1.0 Mb/s per video fits 0.8 of 1.5 Mb/s
    assert {f.initial_grade for f in flow.continuous()
            if f.media_type is MediaType.VIDEO} == {grade}
    assert_book_is_the_charges(server, 2.5e6)


def test_no_room_at_the_bottom_rungs_is_refused_with_the_lint_reason():
    verdict = charge(TWO_PAIRS)
    server, reply, ticket = open_and_request(0.5e6, "two", min_bw_bps=0.25e6)
    assert ticket == 0.5e6 < verdict.degraded_peak_bps
    assert reply.msg_type == "request-reject"
    (finding,) = [d for d in analyze_document(
        "two", TWO_PAIRS, ScenarioSet("two", {"two": TWO_PAIRS},
                                      capacity_bps=0.5e6))
        if d.rule_id == "scenario-bandwidth"]
    assert finding.is_error
    assert reply.body["reason"] == finding.message
    assert server.sessions["sess-1"].active_document is None
    assert_book_is_the_charges(server, ticket)  # the ticket is kept


def test_a_cheaper_document_shrinks_the_reservation():
    peak = charge(ONE_PAIR).peak_bps
    assert peak < TICKET_BPS
    server, reply, ticket = open_and_request(20e6, "doc")
    assert reply.msg_type == "scenario" and ticket == TICKET_BPS
    assert server.admission.granted_bps("sess-1") == peak
    assert_book_is_the_charges(server, peak)


@settings(max_examples=40, deadline=None)
@given(doc=documents(),
       capacity=st.sampled_from([0.1e6, 0.5e6, 1e6, 2e6, 4e6]))
def test_the_lint_verdict_is_the_live_request_doc_outcome(doc, capacity):
    """At ``open_fraction=1`` a contract's limit is the whole capacity:
    what ``lint`` says of a document against that capacity is what an
    otherwise empty server answers a session with a floor."""
    findings = [d for d in analyze_document(
        "extra", doc, ScenarioSet("gen", {"extra": doc},
                                  capacity_bps=capacity))
        if d.rule_id == "scenario-bandwidth"]
    server, reply, _ = open_and_request(
        capacity, "extra", min_bw_bps=min(capacity, TICKET_BPS), extra=doc)
    session = server.sessions["sess-1"]
    if not findings:
        assert reply.msg_type == "scenario" and session.grant_ratio == 1.0
    elif not findings[0].is_error:
        assert reply.msg_type == "scenario" and session.grant_ratio < 1.0
    else:
        assert reply.msg_type == "request-reject"
        assert reply.body["reason"] == findings[0].message
