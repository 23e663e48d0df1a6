"""The service topology: specs, regions, and the construction order.

``ServiceTopology`` builds the paper's star or the star plus regional
POPs; every node, link and RNG stream must come out in the same order
each time, because the population digests sit on top of it. (The file
keeps the name it had when the module was ``net/layers.py`` so the ids
of the tests that survived the rewrite stay stable.)
"""

import pytest

from repro.core.config import EngineConfig, TrafficConfig
from repro.core.engine import ServiceEngine
from repro.des import Simulator
from repro.faults.scenarios import chaos_markup
from repro.net import AccessLinkSpec, RegionSpec, ServiceTopology, cdn_stack
from repro.net import service_topology
from repro.net.topology import Network
from tests.helpers import path

DOC = {"doc": (chaos_markup(2.0), "t")}


def _network():
    return Network(Simulator())


# -- specs --------------------------------------------------------------------

def test_access_spec_has_usable_defaults():
    spec = AccessLinkSpec()
    assert spec.rate_bps > 0
    assert service_topology.ACCESS_DELAY_S > 0
    assert spec.queue_packets > 0
    assert spec.loss_model is None


def test_region_spec_validation():
    with pytest.raises(ValueError):
        RegionSpec("")
    with pytest.raises(ValueError):
        RegionSpec("east", n_clients=-1)


def test_duplicate_region_rejected():
    with pytest.raises(ValueError, match="east"):
        ServiceTopology(_network(), (RegionSpec("east"), RegionSpec("east")))


def test_unknown_region_raises_key_error_naming_it():
    topo = ServiceTopology(_network(), (RegionSpec("east"),))
    with pytest.raises(KeyError, match="nowhere"):
        topo.pop_router("nowhere")
    eng = ServiceEngine(layers=cdn_stack(clients_per_region=1))
    eng.add_server("srv1", documents=DOC)
    with pytest.raises(KeyError, match="nowhere"):
        eng.add_media_replica("srv1", "media", region="nowhere")


# -- constructed shape --------------------------------------------------------

def test_each_region_gets_a_pop_behind_the_core():
    topo = ServiceTopology(_network(), (RegionSpec("east"), RegionSpec("west")))
    assert topo.router == "router"
    assert topo.pop_router(None) == "router"
    assert topo.pop_router("east") == "pop:east"
    assert ("router", "pop:east") in topo.network.links
    assert ("pop:west", "router") in topo.network.links
    assert list(topo.regions) == ["east", "west"]
    assert topo.clients == []


def test_population_clients_attach_to_their_region_pop():
    topo = ServiceTopology(_network(), (RegionSpec("east", 2),))
    assert topo.clients == ["east-c1", "east-c2"]
    assert topo.region_of("east-c1") == "east"
    # each viewer hangs off its region's POP, not the core
    assert ("pop:east", "east-c1") in topo.network.links
    assert ("router", "east-c1") not in topo.network.links


def test_cdn_stack_end_to_end_shape():
    regions = cdn_stack(clients_per_region=2)
    assert regions == (RegionSpec("east", 2), RegionSpec("west", 2))
    topo = ServiceTopology(_network(), regions)
    assert topo.clients == ["east-c1", "east-c2", "west-c1", "west-c2"]
    # every POP link carries the values cdn_stack always passed
    for pop in ("pop:east", "pop:west"):
        link = topo.network.links[(pop, "router")]
        assert (link.rate_bps, link.delay_s, link.queue_packets) \
            == (100e6, 0.008, 500)
    # every region gets a replica of every media server, in order
    eng = ServiceEngine(layers=regions)
    srv = eng.add_server("srv1", documents=DOC)
    assert [(r.name, r.region) for r in srv.replicas["media"]] == [
        ("media@east", "east"), ("media@west", "west")]
    assert srv.node_id == "host:srv1"
    assert eng.topology.region_of("host:srv1") is None  # origin at the core


def test_service_topology_stays_open_after_construction():
    # the topology stays open after construction: viewers and hosts
    # can be added one at a time, at the core or behind a POP
    net = _network()
    topo = ServiceTopology(net, (RegionSpec("east"),))
    topo.add_client("c1", AccessLinkSpec())
    topo.add_client("c2", region="east")
    topo.add_server_host("h1", region="east")
    assert topo.clients == ["c1", "c2"]
    assert ("router", "c1") in net.links
    assert ("pop:east", "c2") in net.links
    assert topo.region_of("c1") is None
    assert topo.region_of("h1") == "east"
    assert path(net, "c1", "h1") == ["c1", "router", "pop:east", "h1"]


def test_access_spec_for_stamps_each_viewer():
    seen = []

    def spec_for(node_id):
        seen.append(node_id)
        return AccessLinkSpec(rate_bps=3e6)

    topo = ServiceTopology(_network(), (RegionSpec("east", 1),),
                           access_spec_for=spec_for)
    topo.add_client("late")
    assert seen == ["east-c1", "late"]
    assert topo.network.links[("pop:east", "east-c1")].rate_bps == 3e6
    assert topo.network.links[("late", "router")].rate_bps == 3e6


# -- one source for every link parameter --------------------------------------

def test_backbone_delay_is_one_constant_with_regions_too(monkeypatch):
    monkeypatch.setattr(service_topology, "BACKBONE_DELAY_S", 0.002)
    eng = ServiceEngine(layers=cdn_stack(clients_per_region=1))
    eng.add_server("srv1", documents=DOC)
    assert eng.network.links[("host:srv1", "router")].delay_s == 0.002
    assert eng.network.links[("host:media@east", "pop:east")].delay_s == 0.002
    # ... and the regional link's constants reach every POP link
    monkeypatch.setattr(service_topology, "REGION_LINK_DELAY_S", 0.003)
    eng = ServiceEngine(layers=(RegionSpec("north", 1),))
    assert eng.network.links[("pop:north", "router")].delay_s == 0.003
    assert eng.network.links[("router", "pop:north")].delay_s == 0.003


def test_default_cross_traffic_targets_the_first_regional_viewer():
    eng = ServiceEngine(
        EngineConfig(seed=3, traffic=[TrafficConfig(kind="poisson",
                                                    stop_at=2.0)]),
        layers=cdn_stack(clients_per_region=1))
    eng.add_server("srv1", documents=DOC)
    quiet = ServiceEngine(EngineConfig(seed=3),
                          layers=cdn_stack(clients_per_region=1))
    quiet.add_server("srv1", documents=DOC)
    for e in (eng, quiet):
        pop = e.orchestrator.run_population(2, "srv1", "doc", stagger_s=0.3)
        assert len(pop.completed()) == 2
    # the source's packets crossed east-c1's access link and no other
    sent = eng.network.links[("xsrc1", "router")].stats.tx_packets
    assert sent > 100

    def extra(src, dst):
        return (eng.network.links[(src, dst)].stats.tx_packets
                - quiet.network.links[(src, dst)].stats.tx_packets)

    assert extra("pop:east", "east-c1") > sent // 2
    assert extra("pop:west", "west-c1") < 10


# -- the construction order the digests stand on -------------------------------
# Captured at the parent of the PR that replaced the layer stack (1b0481c),
# before any edit.

def _duplex(a, b):
    return [(a, b), (b, a)]


def test_regional_topology_node_and_link_order_is_pinned():
    eng = ServiceEngine(layers=cdn_stack(clients_per_region=2))
    eng.add_server("srv1", documents=DOC)
    assert list(eng.network.nodes) == [
        "router", "pop:east", "pop:west",
        "east-c1", "east-c2", "west-c1", "west-c2",
        "host:srv1", "host:media@east", "host:media@west",
    ]
    assert list(eng.network.links) == [
        *_duplex("pop:east", "router"), *_duplex("pop:west", "router"),
        *_duplex("pop:east", "east-c1"), *_duplex("pop:east", "east-c2"),
        *_duplex("pop:west", "west-c1"), *_duplex("pop:west", "west-c2"),
        *_duplex("host:srv1", "router"),
        *_duplex("host:media@east", "pop:east"),
        *_duplex("host:media@west", "pop:west"),
    ]


def test_star_node_and_link_order_is_pinned():
    eng = ServiceEngine()
    assert eng.client_nodes(3) == ["client1", "client2", "client3"]
    assert list(eng.network.nodes) == [
        "router", "client", "client1", "client2", "client3"]
    assert list(eng.network.links) == [
        *_duplex("router", "client"), *_duplex("router", "client1"),
        *_duplex("router", "client2"), *_duplex("router", "client3"),
    ]
