"""Routing oracle: the stdlib Dijkstra against networkx, ties included.

``Network`` routed through ``nx.all_pairs_dijkstra_path`` until the
package stopped importing networkx, and every digest in
``test_datapath_equivalence.py`` depends on where equal-delay ties
fell. Here networkx is the referee, not a dependency: wherever it is
installed (the ``test`` extra, CI's ``tests`` job), every next hop the
data plane takes must be the one the old table held.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.des import Simulator
from repro.net import Network, NoRouteError, Packet, cdn_stack
from tests.helpers import path

nx = pytest.importorskip("networkx")


def reference_graph(net):
    """The graph ``Network`` used to keep: nodes and links in the order
    they were added, weighted by delay plus a nanosecond."""
    graph = nx.DiGraph()
    graph.add_nodes_from(net.nodes)
    for (src, dst), link in net.links.items():
        graph.add_edge(src, dst, weight=link.delay_s + 1e-9)
    return graph


def next_hop(net, node, dst):
    """Where the data plane sends a packet for ``dst`` that is at ``node``."""
    out = net._out_links[node]
    if dst not in out:
        net._route(node, dst)
    return out[dst].dst


def assert_routes_as_networkx(net):
    graph = reference_graph(net)
    paths = dict(nx.all_pairs_dijkstra_path(graph, weight="weight"))
    for node in net.nodes:
        for dst in net.nodes:
            if dst == node:
                assert path(net, node, dst) == [node]
            elif dst in paths[node]:
                assert next_hop(net, node, dst) == paths[node][dst][1], \
                    (node, dst)
                assert path(net, node, dst) == nx.dijkstra_path(
                    graph, node, dst, weight="weight"), (node, dst)
            else:
                with pytest.raises(NoRouteError):
                    next_hop(net, node, dst)
                with pytest.raises(NoRouteError):
                    path(net, node, dst)


def engine(**kwargs):
    eng = ServiceEngine(EngineConfig(seed=3), **kwargs)
    eng.add_server("srv1", documents={"doc": (av_markup(1.0, False), "t")})
    return eng


def test_star_with_12_clients_routes_as_networkx():
    eng = engine()
    eng.client_nodes(12)
    assert_routes_as_networkx(eng.network)


def test_cdn_stack_routes_as_networkx():
    eng = engine(layers=cdn_stack(clients_per_region=12))
    # router, two POPs, the origin host, a replica host per media
    # server and region, 24 viewers
    assert len(eng.network.nodes) == 32
    assert_routes_as_networkx(eng.network)


def test_links_added_after_the_first_packet_route_as_networkx():
    eng = engine()
    first, second = eng.client_nodes(2)
    net = eng.network
    net.send(Packet(src=first, dst=second, size_bytes=100, protocol="UDP",
                    flow_id="f", dst_port=9))
    eng.sim.run()
    assert net.tap.count_by_flow["UDP"]["f"] == 1
    # a shortcut that ties with the two-hop path through the router
    # for some pairs and beats it for others
    net.add_link(first, second, 10e6, net.links[(first, eng.ROUTER)].delay_s
                 + net.links[(eng.ROUTER, second)].delay_s)
    net.add_node("annex")
    net.add_duplex_link("annex", second, 10e6, 0.0)
    assert_routes_as_networkx(net)


#: three delays, so that sums collide and equal-cost paths are the
#: common case; 0.0 leaves only the per-hop nanosecond to tell them apart
DELAYS = (0.0, 0.001, 0.002)


@st.composite
def digraphs(draw):
    n = draw(st.integers(2, 12))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=4 * n))
    return n, [(a, b, draw(st.sampled_from(DELAYS))) for a, b in edges]


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_generated_tie_heavy_digraphs_route_as_networkx(spec):
    n, edges = spec
    net = Network(Simulator())
    for i in range(n):
        net.add_node(f"n{i}")
    for a, b, delay_s in edges:
        net.add_link(f"n{a}", f"n{b}", 10e6, delay_s)
    assert_routes_as_networkx(net)
