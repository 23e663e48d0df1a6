"""Unit tests for links, routing and packet delivery."""

import pytest

from repro.des import RngRegistry, Simulator
from repro.net import (
    AccessLinkSpec,
    GilbertElliottLoss,
    Network,
    NoRouteError,
    Packet,
    PortAllocator,
    PortExhaustedError,
    ServiceTopology,
)
from repro.net import service_topology
from tests.helpers import path, port_allocator


def simple_net(rate=1_000_000, delay=0.01, queue=100):
    sim = Simulator()
    net = Network(sim)
    for n in ("a", "b"):
        net.add_node(n)
    net.add_duplex_link("a", "b", rate_bps=rate, delay_s=delay, queue_packets=queue)
    return sim, net


def test_single_hop_delivery_time():
    sim, net = simple_net(rate=1_000_000, delay=0.01)
    got = []
    net.node("b").bind(5000, lambda p: got.append((sim.now, p)))
    pkt = Packet(src="a", dst="b", size_bytes=1250, protocol="UDP",
                 flow_id="f", dst_port=5000)
    net.send(pkt)
    sim.run()
    # 1250 B at 1 Mb/s = 10 ms serialization + 10 ms propagation.
    assert len(got) == 1
    assert got[0][0] == pytest.approx(0.020, abs=1e-9)


def test_multi_hop_forwarding():
    sim = Simulator()
    net = Network(sim)
    for n in ("a", "r1", "r2", "b"):
        net.add_node(n)
    net.add_duplex_link("a", "r1", 10e6, 0.001)
    net.add_duplex_link("r1", "r2", 10e6, 0.002)
    net.add_duplex_link("r2", "b", 10e6, 0.003)
    got = []
    net.node("b").bind(1, lambda p: got.append(sim.now))
    net.send(Packet(src="a", dst="b", size_bytes=1000, protocol="UDP",
                    flow_id="f", dst_port=1))
    sim.run()
    assert path(net, "a", "b") == ["a", "r1", "r2", "b"]
    # 3 serializations of 0.8 ms + 6 ms propagation: three hops.
    assert got == [pytest.approx(3 * 0.0008 + 0.006, abs=1e-9)]


def test_routing_prefers_low_delay_path():
    sim = Simulator()
    net = Network(sim)
    for n in ("a", "fast", "slow", "b"):
        net.add_node(n)
    net.add_duplex_link("a", "fast", 10e6, 0.001)
    net.add_duplex_link("fast", "b", 10e6, 0.001)
    net.add_duplex_link("a", "slow", 10e6, 0.050)
    net.add_duplex_link("slow", "b", 10e6, 0.050)
    assert path(net, "a", "b") == ["a", "fast", "b"]


def test_shorter_link_added_after_traffic_is_taken_by_later_packets():
    """add_node/add_link invalidate every per-hop next-link table."""
    sim = Simulator()
    net = Network(sim)
    for n in ("a", "r", "slow", "b"):
        net.add_node(n)
    net.add_duplex_link("a", "r", 10e6, 0.001)
    net.add_duplex_link("r", "slow", 10e6, 0.050)
    net.add_duplex_link("slow", "b", 10e6, 0.050)
    #: each packet's time from send to delivery: the path it took
    latency = []
    net.node("b").bind(1, lambda p: latency.append(sim.now - p.created_at))

    def send(dst="b"):
        net.send(Packet(src="a", dst=dst, size_bytes=1000, protocol="UDP",
                        flow_id="f", dst_port=1))
        sim.run()

    send()
    send()
    assert net.links[("r", "slow")].stats.tx_packets == 2
    # Both the source's table and the mid-path router's are warm now,
    # each filled whole by the one pass its first packet paid for...
    assert set(net._out_links["a"]) == {"r", "slow", "b"}
    assert set(net._out_links["r"]) == {"a", "slow", "b"}
    assert not net._out_links["b"]  # never forwarded, never routed
    net.add_node("fast")
    # ...and a change to the topology empties every one of them.
    assert not any(net._out_links.values())
    net.add_duplex_link("r", "fast", 10e6, 0.001)
    net.add_duplex_link("fast", "b", 10e6, 0.001)
    send()
    assert net.links[("r", "slow")].stats.tx_packets == 2
    assert net.links[("r", "fast")].stats.tx_packets == 1
    # A direct link beats both, and the source's own table follows.
    net.add_link("a", "b", 10e6, 0.0005)
    send()
    assert net.links[("a", "r")].stats.tx_packets == 3
    assert net.links[("a", "b")].stats.tx_packets == 1
    # a -> r -> slow -> b twice, a -> r -> fast -> b, then a -> b: a
    # serialization of 0.8 ms a hop plus the links' delays
    assert latency == [pytest.approx(3 * 0.0008 + 0.101, abs=1e-9)] * 2 + [
        pytest.approx(3 * 0.0008 + 0.003, abs=1e-9),
        pytest.approx(0.0008 + 0.0005, abs=1e-9)]
    # A node added later is routable from warm tables too.
    net.add_node("c")
    net.add_duplex_link("b", "c", 10e6, 0.001)
    net.node("c").bind(1, lambda p: latency.append(sim.now - p.created_at))
    send("c")
    # a -> b -> c
    assert latency[-1] == pytest.approx(2 * 0.0008 + 0.0015, abs=1e-9)


def test_no_route_raises_at_the_hop_that_has_none():
    sim = Simulator()
    net = Network(sim)
    for n in ("a", "r", "island"):
        net.add_node(n)
    net.add_duplex_link("a", "r", 10e6, 0.001)
    with pytest.raises(NoRouteError, match="no route a -> island"):
        net.send(Packet(src="a", dst="island", size_bytes=100,
                        protocol="UDP", flow_id="f", dst_port=1))
    with pytest.raises(NoRouteError, match="no route a -> island"):
        path(net, "a", "island")
    with pytest.raises(KeyError):
        path(net, "a", "nowhere")
    with pytest.raises(KeyError):
        path(net, "nowhere", "a")
    assert path(net, "a", "a") == ["a"]


def test_queue_overflow_drops_and_taps():
    sim, net = simple_net(rate=100_000, delay=0.0, queue=2)
    got = []
    net.node("b").bind(1, lambda p: got.append(p.seq))
    # Inject 10 packets back-to-back at t=0; queue holds 2.
    for i in range(10):
        net.send(Packet(src="a", dst="b", size_bytes=1000, protocol="UDP",
                        flow_id="f", dst_port=1, seq=i))
    sim.run()
    link = net.links[("a", "b")]
    assert link.stats.queue_drops > 0
    assert len(got) + link.stats.queue_drops == 10
    assert (link.stats.loss_drops, link.stats.fault_drops) == (0, 0)


def test_fifo_ordering_preserved():
    sim, net = simple_net()
    got = []
    net.node("b").bind(1, lambda p: got.append(p.seq))
    for i in range(20):
        net.send(Packet(src="a", dst="b", size_bytes=500, protocol="UDP",
                        flow_id="f", dst_port=1, seq=i))
    sim.run()
    assert got == list(range(20))


def test_loopback_delivery():
    sim, net = simple_net()
    got = []
    net.node("a").bind(7, lambda p: got.append(p))
    net.send(Packet(src="a", dst="a", size_bytes=100, protocol="UDP",
                    flow_id="f", dst_port=7))
    assert len(got) == 1  # immediate, no sim.run needed


def test_unbound_port_discard_is_counted():
    sim, net = simple_net()
    net.send(Packet(src="a", dst="b", size_bytes=100, protocol="UDP",
                    flow_id="f", dst_port=404))
    sim.run()
    assert net.tap.count_by_flow == {"UDP": {"f": 1}}  # delivered, no handler
    assert net.node("b").rx_discarded == 1
    assert net.node("a").rx_discarded == 0


def test_tap_record_views_of_deliveries_drops_and_a_discard():
    """The counters say what the per-packet recording of this run said
    (commit 1f2a874): f1 seq 3 and f0 seq 4 dropped at the queue, the
    RTCP loopback and f0 seq 0, f1 seq 1, f0 seq 2 delivered, f0 seq 0
    then discarded at b's unbound port 404."""
    sim = Simulator()
    net = Network(sim)
    for n in ("a", "r", "b"):
        net.add_node(n)
    net.add_duplex_link("a", "r", 100_000, 0.01, queue_packets=2)
    net.add_duplex_link("r", "b", 1_000_000, 0.0)
    net.node("b").bind(1, lambda p: None)
    for i in range(5):
        net.send(Packet(src="a", dst="b", size_bytes=250 * (i + 1),
                        protocol="RTP" if i % 2 else "TCP",
                        flow_id=f"f{i % 2}", dst_port=1 if i else 404,
                        seq=i))
    net.send(Packet(src="b", dst="b", size_bytes=40, protocol="RTCP",
                    flow_id="loop", dst_port=1, seq=9))
    sim.run()
    assert net.tap.bytes_by_protocol == {"RTCP": 40, "TCP": 1000, "RTP": 500}
    assert net.tap.count_by_flow == {
        "RTP": {"f1": 1}, "TCP": {"f0": 2}, "RTCP": {"loop": 1}}
    assert net.links[("a", "r")].stats.queue_drops == 2
    assert sum(link.stats.queue_drops + link.stats.loss_drops
               + link.stats.fault_drops for link in net.links.values()) == 2
    assert net.node("b").rx_discarded == 1


def test_a_flow_that_only_lost_packets_still_names_its_protocol():
    sim, net = simple_net(rate=100_000, delay=0.0, queue=1)
    net.node("b").bind(1, lambda p: None)
    for flow in ("kept", "kept", "lost"):
        net.send(Packet(src="a", dst="b", size_bytes=1000, protocol="UDP",
                        flow_id=flow, dst_port=1))
    sim.run()
    assert net.tap.count_by_flow == {"UDP": {"kept": 2, "lost": 0}}


def test_bound_port_not_counted_as_discard():
    sim, net = simple_net()
    net.node("b").bind(5, lambda p: None)
    net.send(Packet(src="a", dst="b", size_bytes=100, protocol="UDP",
                    flow_id="f", dst_port=5))
    sim.run()
    assert net.node("b").rx_discarded == 0


def test_port_allocator_sequences_and_isolation():
    alloc_a = PortAllocator("a")
    alloc_b = PortAllocator("b")
    # Sequential within a range, independent across nodes.
    assert [alloc_a.allocate("media") for _ in range(3)] == \
        [40_000, 40_001, 40_002]
    assert alloc_b.allocate("media") == 40_000
    assert alloc_a.allocate("rtcp") == 30_000
    assert alloc_a.next_free("media") == 40_003
    assert alloc_a.allocated("media") == 3
    base = alloc_a.allocate_block(10, "control")
    assert base == 10_000
    assert alloc_a.next_free("control") == 10_010


def test_port_allocator_claim_coordinates_two_nodes():
    client, server = PortAllocator("c"), PortAllocator("s")
    server.claim(10_000, 10, "control")  # another client took this block
    base = max(client.next_free("control"), server.next_free("control"))
    assert base == 10_010
    client.claim(base, 10, "control")
    server.claim(base, 10, "control")
    assert client.next_free("control") == 10_020
    with pytest.raises(ValueError):
        client.claim(10_005, 10, "control")  # below the cursor


def test_port_allocator_exhaustion_is_explicit():
    alloc = port_allocator("tiny", {"r": (1, 3)})
    assert alloc.allocate("r") == 1
    assert alloc.allocate("r") == 2
    with pytest.raises(PortExhaustedError) as exc:
        alloc.allocate("r")
    assert "tiny" in str(exc.value) and "'r'" in str(exc.value)
    with pytest.raises(KeyError):
        alloc.allocate("nope")


def test_topology_builder_star(monkeypatch):
    monkeypatch.setattr(service_topology, "BACKBONE_RATE_BPS", 50e6)
    monkeypatch.setattr(service_topology, "BACKBONE_DELAY_S", 0.002)
    sim = Simulator()
    net = Network(sim)
    tb = ServiceTopology(net)  # the core router is "router"
    tb.add_client("c1", AccessLinkSpec(rate_bps=5e6))
    tb.add_client("c2", AccessLinkSpec(rate_bps=2e6))
    tb.add_server_host("h1")
    tb.add_traffic_host("x1")
    assert tb.clients == ["c1", "c2"]
    # Hosts ride the backbone parameters; a traffic host sits 1 ms out.
    assert net.links[("h1", "router")].rate_bps == 50e6
    assert net.links[("h1", "router")].delay_s == 0.002
    assert net.links[("x1", "router")].delay_s == 0.001
    # Per-client link parameters took effect, in both directions.
    assert net.links[("router", "c1")].rate_bps == 5e6
    assert net.links[("c2", "router")].rate_bps == 2e6
    # Everything routes through the star's router.
    assert path(net, "c1", "h1") == ["c1", "router", "h1"]
    assert path(net, "h1", "c2") == ["h1", "router", "c2"]
    assert path(net, "c1", "c2") == ["c1", "router", "c2"]


def test_access_link_spec_validation():
    with pytest.raises(ValueError):
        AccessLinkSpec(rate_bps=0)
    with pytest.raises(ValueError):
        AccessLinkSpec(queue_packets=0)


def test_gilbert_elliott_loss_on_link():
    sim = Simulator()
    net = Network(sim)
    net.add_node("a")
    net.add_node("b")
    rng = RngRegistry(seed=11).stream("ge")
    ge = GilbertElliottLoss(rng, p_gb=0.5, p_bg=0.5, loss_bad=1.0)
    net.add_link("a", "b", 10e6, 0.001, loss_model=ge)
    got = []
    net.node("b").bind(1, lambda p: got.append(p.seq))

    def sender():
        for i in range(400):
            net.send(Packet(src="a", dst="b", size_bytes=500, protocol="UDP",
                            flow_id="f", dst_port=1, seq=i))
            yield sim.timeout(0.01)

    sim.process(sender())
    sim.run()
    link = net.links[("a", "b")]
    assert link.stats.loss_drops > 0
    assert len(got) + link.stats.loss_drops == 400
    # Stationary loss is ~50%; allow generous tolerance.
    assert 0.3 < link.stats.loss_drops / 400 < 0.7


def test_tap_aggregates_by_protocol():
    sim, net = simple_net()
    net.node("b").bind(1, lambda p: None)
    net.send(Packet(src="a", dst="b", size_bytes=100, protocol="RTP",
                    flow_id="f1", dst_port=1))
    net.send(Packet(src="a", dst="b", size_bytes=200, protocol="TCP",
                    flow_id="f2", dst_port=1))
    sim.run()
    assert net.tap.bytes_by_protocol == {"RTP": 100, "TCP": 200}
    assert "f1" in net.tap.count_by_flow["RTP"]


def test_duplicate_node_and_link_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_node("a")
    with pytest.raises(ValueError):
        net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", 1e6, 0.01)
    with pytest.raises(ValueError):
        net.add_link("a", "b", 1e6, 0.01)
    with pytest.raises(KeyError):
        net.add_link("a", "zzz", 1e6, 0.01)


def test_send_to_unknown_node_rejected():
    sim, net = simple_net()
    with pytest.raises(KeyError):
        net.send(Packet(src="zzz", dst="b", size_bytes=1, protocol="UDP",
                        flow_id="f", dst_port=1))


def test_link_utilisation_counter():
    sim, net = simple_net(rate=1_000_000)
    net.node("b").bind(1, lambda p: None)
    for i in range(5):
        net.send(Packet(src="a", dst="b", size_bytes=1250, protocol="UDP",
                        flow_id="f", dst_port=1, seq=i))
    sim.run()
    link = net.links[("a", "b")]
    assert link.stats.tx_packets == 5
    assert link.stats.busy_time == pytest.approx(5 * 0.01)


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(src="a", dst="b", size_bytes=0, protocol="UDP",
               flow_id="f", dst_port=1)
