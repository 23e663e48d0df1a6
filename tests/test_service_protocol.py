"""Integration tests: control channel + client/server session protocol."""

import pytest

from repro.des import Simulator
from repro.hml import DocumentBuilder
from repro.net import Network
from repro.server import (
    AccountRegistry,
    AdmissionController,
    MultimediaDatabase,
    MultimediaServer,
    SubscriptionForm,
)
from repro.media import default_registry
from repro.service import ControlChannel, ClientSession, ServerSessionHandler
from repro.service import SessionState as S
from tests.helpers import add_document


def simple_doc(title="Doc", link_to=None):
    b = DocumentBuilder(title).text("hello world of hypermedia")
    if link_to:
        b.hyperlink(link_to)
    return b.build()


def build_service(grace=5.0, capacity=50e6):
    sim = Simulator()
    net = Network(sim)
    net.add_node("client")
    net.add_node("host:srv1")
    net.add_duplex_link("client", "host:srv1", 10e6, 0.005)
    accounts = AccountRegistry()
    db = MultimediaDatabase()
    add_document(db, "doc1", simple_doc("First Lesson"), topic="demo")
    add_document(db, "doc2", simple_doc("Second Lesson"), topic="demo")
    server = MultimediaServer(
        sim, "srv1", "host:srv1", db, accounts, default_registry(), {},
        admission=AdmissionController(capacity),
    )
    channel = ControlChannel(net, "client", "host:srv1", base_port=10_000,
                             name="ctl-1")
    handler = ServerSessionHandler(server, channel.server, "sess-1",
                                   "client", suspend_grace_s=grace)
    client = ClientSession(sim, channel.client, "ada", "pw")
    return sim, server, client, handler


def run_coro(sim, gen):
    proc = sim.process(gen)
    return sim.run(until=proc)


def test_connect_requires_subscription_then_succeeds():
    sim, server, client, handler = build_service()

    def script():
        resp = yield from client.connect()
        assert resp.msg_type == "subscribe-required"
        assert client.fsm.state is S.SUBSCRIBING
        form = SubscriptionForm(real_name="Ada", address="x",
                                email="ada@example.org")
        resp = yield from client.subscribe(form, contract="premium")
        assert resp.msg_type == "connect-ok"
        return resp

    resp = run_coro(sim, script())
    assert client.fsm.state is S.BROWSING
    assert client.topics == ["demo"]
    assert client.documents == ["doc1", "doc2"]
    assert server.accounts.get("ada").contract.name == "premium"


def test_existing_user_authenticates_directly():
    sim, server, client, handler = build_service()
    server.accounts.subscribe(
        "ada", SubscriptionForm(real_name="Ada", address="x",
                                email="a@b.org"), secret="pw",
    )

    def script():
        resp = yield from client.connect()
        return resp

    resp = run_coro(sim, script())
    assert resp.msg_type == "connect-ok"
    assert client.fsm.state is S.BROWSING


def test_bad_secret_rejected():
    sim, server, client, handler = build_service()
    server.accounts.subscribe(
        "ada", SubscriptionForm(real_name="Ada", address="x",
                                email="a@b.org"), secret="other",
    )

    def script():
        resp = yield from client.connect()
        return resp

    resp = run_coro(sim, script())
    assert resp.msg_type == "connect-reject"
    assert client.fsm.state is S.DISCONNECTED


def test_admission_rejection_propagates():
    sim, server, client, handler = build_service(capacity=1e6)
    server.accounts.subscribe(
        "ada", SubscriptionForm(real_name="Ada", address="x",
                                email="a@b.org"), secret="pw",
    )

    def script():
        resp = yield from client.connect(required_bw_bps=5e6)
        return resp

    resp = run_coro(sim, script())
    assert resp.msg_type == "connect-reject"
    assert "exceeds" in resp.body["reason"]


def test_document_request_and_markup_transfer():
    sim, server, client, handler = build_service()

    def script():
        yield from client.connect()
        form = SubscriptionForm(real_name="Ada", address="x",
                                email="a@b.org")
        yield from client.subscribe(form)
        resp = yield from client.request_document("doc1")
        return resp

    resp = run_coro(sim, script())
    assert resp.msg_type == "scenario"
    assert client.fsm.state is S.VIEWING
    assert "First Lesson" in client.last_markup
    # The account's audit trail recorded the retrieval.
    assert [d for e, _, d in server.accounts.get("ada").history
            if e == "retrieve"] == ["doc1"]


def test_unknown_document_rejected():
    sim, server, client, handler = build_service()

    def script():
        yield from client.connect()
        yield from client.subscribe(
            SubscriptionForm(real_name="A", address="x", email="a@b.org"))
        resp = yield from client.request_document("missing")
        return resp

    resp = run_coro(sim, script())
    assert resp.msg_type == "request-reject"
    assert client.fsm.state is S.BROWSING


def test_search_over_protocol():
    sim, server, client, handler = build_service()

    def script():
        yield from client.connect()
        yield from client.subscribe(
            SubscriptionForm(real_name="A", address="x", email="a@b.org"))
        results = yield from client.search("lesson")
        return results

    results = run_coro(sim, script())
    assert results == {"srv1": ["doc1", "doc2"]}


def test_suspend_within_grace_resumes():
    sim, server, client, handler = build_service(grace=10.0)

    def script():
        yield from client.connect()
        yield from client.subscribe(
            SubscriptionForm(real_name="A", address="x", email="a@b.org"))
        yield from client.request_document("doc1")
        resp = yield from client.suspend_for_remote_link()
        assert resp.msg_type == "suspended"
        yield sim.timeout(3.0)  # return before the grace interval ends
        resp = yield from client.resume_connection()
        return resp

    resp = run_coro(sim, script())
    assert resp.msg_type == "resumed-conn"
    assert client.fsm.state is S.REQUESTING
    assert "sess-1" in server.sessions


def test_suspend_expiry_closes_connection():
    sim, server, client, handler = build_service(grace=2.0)

    def script():
        yield from client.connect()
        yield from client.subscribe(
            SubscriptionForm(real_name="A", address="x", email="a@b.org"))
        yield from client.request_document("doc1")
        yield from client.suspend_for_remote_link()
        yield sim.timeout(5.0)  # past the grace interval
        resp = yield from client.resume_connection()
        return resp

    resp = run_coro(sim, script())
    assert resp.msg_type == "expired"
    assert client.suspend_expired  # server notified the client
    assert client.fsm.state is S.BROWSING
    assert "sess-1" not in server.sessions


def test_disconnect_bills_session():
    sim, server, client, handler = build_service()

    def script():
        yield from client.connect()
        yield from client.subscribe(
            SubscriptionForm(real_name="A", address="x", email="a@b.org"))
        yield sim.timeout(120.0)  # two minutes connected
        charge = yield from client.disconnect()
        return charge

    charge = run_coro(sim, script())
    assert charge == pytest.approx(2 * 0.02, rel=0.1)
    assert client.fsm.state is S.DISCONNECTED
    assert server.admission.active_sessions() == 0


def test_pause_resume_protocol():
    sim, server, client, handler = build_service()

    def script():
        yield from client.connect()
        yield from client.subscribe(
            SubscriptionForm(real_name="A", address="x", email="a@b.org"))
        yield from client.request_document("doc1")
        resp = yield from client.pause()
        assert resp.msg_type == "paused"
        assert client.fsm.state is S.PAUSED
        resp = yield from client.resume()
        return resp

    resp = run_coro(sim, script())
    assert resp.msg_type == "resumed"
    assert client.fsm.state is S.VIEWING


def test_unknown_message_type_answered():
    sim, server, client, handler = build_service()

    def script():
        _, ev = client.endpoint.request("bogus-type")
        resp = yield ev
        return resp

    resp = run_coro(sim, script())
    assert resp.msg_type == "protocol-error"
