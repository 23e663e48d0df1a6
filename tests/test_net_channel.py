"""Unit tests for datagram and reliable (go-back-N) transports."""

import pytest

from repro.des import RngRegistry, Simulator
from repro.net import (
    DatagramSocket,
    GilbertElliottLoss,
    Network,
    ReliableReceiver,
    ReliableSender,
)
from repro.net import channel
from repro.net.packet import Packet


def build_net(loss_model=None, rate=2_000_000, delay=0.005):
    sim = Simulator()
    net = Network(sim)
    net.add_node("client")
    net.add_node("server")
    net.add_link("server", "client", rate, delay, loss_model=loss_model)
    net.add_link("client", "server", rate, delay)
    return sim, net


def test_datagram_roundtrip():
    sim, net = build_net()
    got = []
    net.node("client").bind(6000, lambda p: got.append(p.payload))
    net.send(Packet(src="server", dst="client", size_bytes=500,
                    protocol="UDP", flow_id="f", dst_port=6000,
                    payload="hello"))
    sim.run()
    assert got == ["hello"]
    assert net.links[("server", "client")].stats.tx_packets == 1


def test_datagram_close_unbinds():
    sim, net = build_net()
    sock = DatagramSocket(net, "client", 6000)
    sock.close()
    # Port can be rebound after close.
    DatagramSocket(net, "client", 6000)


def test_reliable_single_message_lossless():
    sim, net = build_net()
    msgs = []
    ReliableReceiver(net, "client", 7000,
                     on_message=lambda data, size, flow: msgs.append((data, size)))
    tx = ReliableSender(net, "server", 7001, "client", 7000, flow_id="doc")
    done = tx.send_message(10_000, payload={"doc": 1})
    sim.run(until=done)
    assert msgs == [({"doc": 1}, 10_000)]
    assert tx.retransmissions == 0


def test_reliable_sender_arms_one_rto_timer_per_ack(monkeypatch):
    """The first pump arms the retransmission timer, each ACK that
    leaves data outstanding re-arms it once, and the last ACK cancels
    it: no superseded arm is left to fire as a stale heap entry."""
    sim, net = build_net()
    ReliableReceiver(net, "client", 7000)
    monkeypatch.setattr(channel, "WINDOW_SEGMENTS", 2)
    monkeypatch.setattr(channel, "MSS", 1000)
    tx = ReliableSender(net, "server", 7001, "client", 7000, flow_id="doc")
    arms = []
    arm = tx._arm_timer

    def counted_arm():
        arms.append(sim.now)
        arm()

    tx._arm_timer = counted_arm
    done = tx.send_message(6000)  # six segments, acked one by one
    sim.run()
    assert done.triggered and tx.retransmissions == 0
    assert len(arms) == 1 + 5


def test_reliable_message_larger_than_window(monkeypatch):
    monkeypatch.setattr(channel, "WINDOW_SEGMENTS", 4)
    monkeypatch.setattr(channel, "MSS", 1000)
    sim, net = build_net()
    msgs = []
    ReliableReceiver(net, "client", 7000,
                     on_message=lambda data, size, flow: msgs.append(size))
    tx = ReliableSender(net, "server", 7001, "client", 7000, flow_id="doc")
    done = tx.send_message(50_000)
    sim.run(until=done)
    assert msgs == [50_000]


def test_reliable_recovers_from_loss(monkeypatch):
    monkeypatch.setattr(channel, "MSS", 1000)
    monkeypatch.setattr(channel, "RTO_S", 0.05)
    rng = RngRegistry(seed=2).stream("loss")
    ge = GilbertElliottLoss(rng, p_gb=0.2, p_bg=0.5, loss_bad=0.5)
    sim, net = build_net(loss_model=ge)
    msgs = []
    ReliableReceiver(net, "client", 7000,
                     on_message=lambda data, size, flow: msgs.append(size))
    tx = ReliableSender(net, "server", 7001, "client", 7000, flow_id="doc")
    done = tx.send_message(40_000)
    sim.run(until=done)
    assert msgs == [40_000]
    assert tx.retransmissions > 0


def test_reliable_multiple_messages_in_order():
    sim, net = build_net()
    msgs = []
    ReliableReceiver(net, "client", 7000,
                     on_message=lambda data, size, flow: msgs.append(data))
    tx = ReliableSender(net, "server", 7001, "client", 7000, flow_id="doc")
    tx.send_message(3000, payload="first")
    tx.send_message(3000, payload="second")
    done = tx.send_message(3000, payload="third")
    sim.run(until=done)
    assert msgs == ["first", "second", "third"]


def test_reliable_two_flows_one_receiver():
    sim = Simulator()
    net = Network(sim)
    for n in ("c", "s1", "s2"):
        net.add_node(n)
    net.add_duplex_link("c", "s1", 2e6, 0.005)
    net.add_duplex_link("c", "s2", 2e6, 0.005)
    msgs = []
    ReliableReceiver(net, "c", 7000,
                     on_message=lambda data, size, flow: msgs.append((flow, data)))
    t1 = ReliableSender(net, "s1", 7001, "c", 7000, flow_id="flow-1")
    t2 = ReliableSender(net, "s2", 7001, "c", 7000, flow_id="flow-2")
    d1 = t1.send_message(5000, payload="from-s1")
    d2 = t2.send_message(5000, payload="from-s2")
    sim.run(until=net.sim.all_of([d1, d2]))
    assert sorted(msgs) == [("flow-1", "from-s1"), ("flow-2", "from-s2")]


def test_reliable_sender_rejects_bad_usage():
    sim, net = build_net()
    tx = ReliableSender(net, "server", 7001, "client", 7000, flow_id="doc")
    with pytest.raises(ValueError):
        tx.send_message(0)
    tx.close()
    with pytest.raises(RuntimeError):
        tx.send_message(100)


def test_reliable_delivery_slower_under_loss(monkeypatch):
    monkeypatch.setattr(channel, "MSS", 1000)
    monkeypatch.setattr(channel, "RTO_S", 0.05)

    def timed(loss):
        if loss:
            rng = RngRegistry(seed=5).stream("l")
            ge = GilbertElliottLoss(rng, p_gb=0.3, p_bg=0.4, loss_bad=0.6)
        else:
            ge = None
        sim, net = build_net(loss_model=ge)
        ReliableReceiver(net, "client", 7000)
        tx = ReliableSender(net, "server", 7001, "client", 7000,
                            flow_id="doc")
        done = tx.send_message(30_000)
        return sim.run(until=done)

    assert timed(loss=True) > timed(loss=False)
