"""Fuzzing and failure-injection tests across the stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, ServiceEngine, TrafficConfig
from repro.core.experiments import av_markup
from repro.des import RngRegistry, Simulator
from repro.hml import HmlSyntaxError, parse, tokenize
from repro.net import (
    GilbertElliottLoss,
    Network,
    ReliableReceiver,
    ReliableSender,
)
from repro.net import channel
from tests.helpers import add_document, session_on


# ----------------------------------------------------------- parser fuzz
@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_fuzz_lexer_total(text):
    """The lexer either tokenizes or raises HmlSyntaxError — never
    anything else, never hangs."""
    try:
        tokenize(text)
    except HmlSyntaxError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="<>/=AUVITEXT HLINK B12.\"'\n\t abcxyz", max_size=200))
def test_fuzz_parser_total(text):
    """Tag-soup input parses or raises HmlSyntaxError, nothing else."""
    try:
        parse(text)
    except HmlSyntaxError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=120))
def test_fuzz_parser_binaryish(data):
    try:
        parse(data.decode("latin-1"))
    except HmlSyntaxError:
        pass


# ------------------------------------------------- reliable channel abuse
def lossy_net(seed, p_gb, direction="both"):
    sim = Simulator()
    net = Network(sim)
    net.add_node("a")
    net.add_node("b")
    reg = RngRegistry(seed=seed)

    def ge(name):
        return GilbertElliottLoss(reg.stream(name), p_gb=p_gb, p_bg=0.3,
                                  loss_bad=0.5)

    net.add_link("a", "b", 2e6, 0.005,
                 loss_model=ge("fwd") if direction in ("both", "fwd")
                 else None)
    net.add_link("b", "a", 2e6, 0.005,
                 loss_model=ge("rev") if direction in ("both", "rev")
                 else None)
    return sim, net


@pytest.mark.parametrize("direction", ["fwd", "rev", "both"])
def test_reliable_channel_survives_loss_each_direction(direction,
                                                      monkeypatch):
    """Data loss, ACK loss, and both together all recover via GBN."""
    monkeypatch.setattr(channel, "MSS", 1000)
    monkeypatch.setattr(channel, "RTO_S", 0.05)
    sim, net = lossy_net(seed=3, p_gb=0.2, direction=direction)
    got = []
    ReliableReceiver(net, "b", 7000,
                     on_message=lambda d, s, f: got.append((d, s)))
    tx = ReliableSender(net, "a", 7001, "b", 7000, flow_id="f")
    for i in range(5):
        done = tx.send_message(8_000, payload=i)
    sim.run(until=done)
    assert [d for d, _ in got] == [0, 1, 2, 3, 4]
    assert all(s == 8_000 for _, s in got)


SIZES = (8_000, 1, 2_500, 1_000, 12_345, 999)


@pytest.mark.parametrize("direction", ["fwd", "rev", "both"])
@pytest.mark.parametrize("seed", [3, 5, 9])
def test_reliable_channel_law_under_loss(seed, direction, monkeypatch):
    """Every message is delivered once, in order, with its size, and
    acknowledged after that; every data packet and every ACK sent is
    either delivered to its port or dropped on its link."""
    monkeypatch.setattr(channel, "MSS", 1000)
    monkeypatch.setattr(channel, "RTO_S", 0.05)
    sim, net = lossy_net(seed=seed, p_gb=0.2, direction=direction)
    log = []
    rx = ReliableReceiver(
        net, "b", 7000,
        on_message=lambda d, s, f: log.append(("message", d, s)))
    tx = ReliableSender(net, "a", 7001, "b", 7000, flow_id="f")

    sent = {"a": 0, "b": 0}
    send = net.send

    def counted_send(pkt):
        sent[pkt.src] += 1
        return send(pkt)

    net.send = counted_send
    delivered = {7000: 0, 7001: 0}
    for node, port, handler in (("b", 7000, rx._on_data),
                                ("a", 7001, tx._on_ack)):
        def counted(pkt, port=port, handler=handler):
            delivered[port] += 1
            handler(pkt)

        net.node(node).unbind(port)
        net.node(node).bind(port, counted)

    for i, size in enumerate(SIZES):
        tx.send_message(size, payload=i).callbacks.append(
            lambda ev, i=i: log.append(("done", i, None)))
    sim.run()

    messages = [(d, s) for kind, d, s in log if kind == "message"]
    assert messages == list(enumerate(SIZES))
    for i in range(len(SIZES)):
        assert [kind for kind, d, _ in log if d == i] == ["message", "done"]
    # the lossy links really lost packets
    assert (net.links[("a", "b")].stats.loss_drops > 0) == (direction != "rev")
    assert (net.links[("b", "a")].stats.loss_drops > 0) == (direction != "fwd")
    segments = sum(-(-size // 1000) for size in SIZES)
    assert sent["a"] == segments + tx.retransmissions
    for (src, dst), port in ((("a", "b"), 7000), (("b", "a"), 7001)):
        stats = net.links[(src, dst)].stats
        assert sent[src] == (delivered[port] + stats.queue_drops
                             + stats.loss_drops + stats.fault_drops)


@pytest.mark.parametrize("direction", ["fwd", "rev", "both"])
@pytest.mark.parametrize("seed", [3, 5, 9])
def test_a_drained_reliable_sender_holds_no_segment(seed, direction,
                                                    monkeypatch):
    """An ACK releases the segments it covers: once every message of the
    law's lossy run is acknowledged, the sender holds none of them (27
    were held there while every segment was kept for the sender's
    life), and mid-run it holds only those from the oldest unacked."""
    monkeypatch.setattr(channel, "MSS", 1000)
    monkeypatch.setattr(channel, "RTO_S", 0.05)
    sim, net = lossy_net(seed=seed, p_gb=0.2, direction=direction)
    ReliableReceiver(net, "b", 7000)
    tx = ReliableSender(net, "a", 7001, "b", 7000, flow_id="f")
    held = []

    def watch():
        held.append((len(tx._segments), tx._base))
        if tx._msgs:
            sim.call_later(0.01, watch)

    for i, size in enumerate(SIZES):
        tx.send_message(size, payload=i)
    total = sum(-(-size // 1000) for size in SIZES)
    watch()
    sim.run()
    assert not tx._msgs
    assert len(tx._segments) == 0 and tx._base == tx._next == total
    assert all(n + base == total for n, base in held)
    assert len(held) > 1 and held[-1][1] > held[0][1]


def test_an_ack_after_close_is_discarded_at_the_unbound_port():
    """close() unbinds the sender's port, so an ACK still in flight is
    counted as a discard there and reaches no handler."""
    sim, net = lossy_net(seed=3, p_gb=0.0, direction="neither")
    ReliableReceiver(net, "b", 7000)
    tx = ReliableSender(net, "a", 7001, "b", 7000, flow_id="f")
    acks = []
    on_ack = tx._on_ack
    tx._on_ack = lambda pkt: (acks.append(pkt.seq), on_ack(pkt))
    net.node("a").unbind(7001)
    net.node("a").bind(7001, tx._on_ack)
    tx.send_message(1000)
    # the segment reaches b at 9 ms (4 ms on the wire, 5 ms of delay),
    # its ACK a at about 14.2 ms: close between the two
    sim.run(until=0.012)
    tx.close()
    sim.run()
    assert acks == []
    assert net.node("a").rx_discarded == 1
    assert net.links[("b", "a")].stats.tx_packets == 1
    assert tx._base == 0 and len(tx._segments) == 1


def test_control_protocol_over_lossy_network():
    """The whole application protocol completes over a lossy path."""
    from repro.server import (
        AccountRegistry, AdmissionController, MultimediaDatabase,
        MultimediaServer,
    )
    from repro.media import default_registry
    from repro.hml import DocumentBuilder
    from repro.service import ClientSession, ControlChannel, \
        ServerSessionHandler

    sim, net = lossy_net(seed=9, p_gb=0.1, direction="both")
    db = MultimediaDatabase()
    add_document(db, "doc", DocumentBuilder("Lossy lesson")
                    .text("still works").build())
    server = MultimediaServer(sim, "s", "b", db, AccountRegistry(),
                              default_registry(), {},
                              admission=AdmissionController(10e6))
    channel = ControlChannel(net, "a", "b", base_port=10_000, name="ctl-1")
    ServerSessionHandler(server, channel.server, "sess", "a")
    client = ClientSession(sim, channel.client, "u", "pw")

    def script():
        from repro.server.accounts import SubscriptionForm

        resp = yield from client.connect()
        assert resp.msg_type == "subscribe-required"
        resp = yield from client.subscribe(SubscriptionForm(
            real_name="U", address="x", email="u@e.org"))
        assert resp.msg_type == "connect-ok"
        resp = yield from client.request_document("doc")
        assert resp.msg_type == "scenario"
        charge = yield from client.disconnect()
        return charge

    proc = sim.process(script())
    charge = sim.run(until=proc)
    assert charge >= 0.0
    assert "Lossy lesson" in client.last_markup


# ----------------------------------------------------- end-to-end chaos
def test_full_service_under_combined_impairments():
    """Loss + bursty congestion + tiny buffers: the session still
    completes and reports sane, self-consistent metrics."""
    cfg = EngineConfig(
        seed=7,
        access_rate_bps=3e6,
        loss_p_gb=0.05, loss_bad=0.4,
        time_window_s=0.3,
        traffic=[TrafficConfig(kind="onoff", rate_bps=2e6,
                               on_mean_s=0.5, off_mean_s=0.5)],
    )
    eng = ServiceEngine(cfg)
    eng.add_server("srv1", documents={"doc": (av_markup(12.0), "x")})
    r = session_on(eng, "srv1", "doc", horizon_s=120.0)
    assert r.completed
    for s in r.streams.values():
        assert s.frames_played >= 0
        assert 0.0 <= s.gap_ratio <= 1.0
        assert s.packets_lost >= 0
    assert 0.0 <= r.loss_ratio() <= 1.0
    assert r.loss_ratio() > 0.0  # the impairments really applied
    # Feedback loop stayed alive through the chaos.
    assert r.protocol_bytes.get("RTCP", 0) > 0


def test_session_against_empty_server():
    eng = ServiceEngine()
    eng.add_server("srv1")
    r = eng.orchestrator.run_full_session("srv1", "anything")
    assert not r.completed


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_property_engine_never_deadlocks(seed):
    """Any seed: a short session terminates well before the horizon."""
    cfg = EngineConfig(seed=seed, access_rate_bps=4e6,
                       traffic=[TrafficConfig(kind="poisson",
                                              rate_bps=2e6)])
    eng = ServiceEngine(cfg)
    eng.add_server("srv1", documents={"doc": (av_markup(3.0), "x")})
    r = session_on(eng, "srv1", "doc", horizon_s=60.0)
    assert r.completed
    assert eng.sim.now < 60.0
