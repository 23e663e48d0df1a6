"""Tests for cross-server document redirects."""

from repro.core import ServiceEngine
from repro.core.experiments import av_markup


# ------------------------------------------------------------- redirect
def test_request_for_remote_document_redirects():
    eng = ServiceEngine()
    eng.add_server("srv1", documents={"local": (av_markup(2.0), "x")})
    eng.add_server("srv2", documents={"remote": (av_markup(2.0), "x")})
    client, handler = eng.open_session("srv1", "u", "pw")
    box = {}

    def script():
        from repro.server.accounts import SubscriptionForm

        resp = yield from client.connect()
        if resp.msg_type == "subscribe-required":
            yield from client.subscribe(SubscriptionForm(
                real_name="U", address="x", email="u@e.org"))
        resp = yield from client.request_document("remote")
        box["resp"] = resp

    proc = eng.sim.process(script())
    eng.sim.run(until=proc)
    resp = box["resp"]
    assert resp.msg_type == "redirect"
    assert resp.body["server"] == "srv2"
    # The FSM is back in browsing, ready for the suspend/switch dance.
    assert client.fsm.state.value == "browsing"


def test_request_for_nowhere_document_rejects():
    eng = ServiceEngine()
    eng.add_server("srv1", documents={"local": (av_markup(2.0), "x")})
    eng.add_server("srv2", documents={"remote": (av_markup(2.0), "x")})
    client, handler = eng.open_session("srv1", "u", "pw")
    box = {}

    def script():
        from repro.server.accounts import SubscriptionForm

        resp = yield from client.connect()
        if resp.msg_type == "subscribe-required":
            yield from client.subscribe(SubscriptionForm(
                real_name="U", address="x", email="u@e.org"))
        resp = yield from client.request_document("ghost")
        box["resp"] = resp

    proc = eng.sim.process(script())
    eng.sim.run(until=proc)
    assert box["resp"].msg_type == "request-reject"


def test_locate_document_directory():
    eng = ServiceEngine()
    eng.add_server("srv1", documents={"a": (av_markup(1.0), "x")})
    eng.add_server("srv2", documents={"b": (av_markup(1.0), "x")})
    s1 = eng.servers["srv1"]
    assert s1.locate_document("a") == "srv1"
    assert s1.locate_document("b") == "srv2"
    assert s1.locate_document("zzz") is None
