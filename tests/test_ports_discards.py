"""Port-exhaustion diagnostics and rx_discarded propagation."""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.net import PortExhaustedError
from repro.net.packet import Packet
from repro.net.ports import DEFAULT_PORT_RANGES
from tests.helpers import port_allocator
from repro.obs import RecordingTracer
from tests.helpers import select


# -- PortAllocator exhaustion -------------------------------------------------

def test_exhaustion_error_names_node_range_and_bounds():
    alloc = port_allocator("clientX", {"media": (100, 102)})
    alloc.allocate("media")
    alloc.allocate("media")
    with pytest.raises(PortExhaustedError) as exc:
        alloc.allocate("media")
    err = exc.value
    assert err.node_id == "clientX"
    assert "clientX" in str(err) and "'media'" in str(err)
    assert "[100, 102)" in str(err)


def test_exhaustion_from_next_free_block_and_claim():
    alloc = port_allocator("n", {"r": (0, 4)})
    with pytest.raises(PortExhaustedError):
        alloc.allocate_block(5, "r")  # never fit
    alloc.allocate_block(4, "r")
    with pytest.raises(PortExhaustedError):
        alloc.next_free("r")
    with pytest.raises(PortExhaustedError):
        alloc.claim(4, 1, "r")  # beyond the range's upper bound


def test_exhaustion_preserves_allocator_state():
    alloc = port_allocator("n", {"r": (0, 2)})
    alloc.allocate("r")
    with pytest.raises(PortExhaustedError):
        alloc.allocate_block(2, "r")
    # The failed block allocation must not consume the remaining port.
    assert alloc.allocate("r") == 1


# -- rx_discarded propagation -------------------------------------------------

def test_rx_discard_reaches_tap_session_result_and_trace():
    tracer = RecordingTracer()
    eng = ServiceEngine(EngineConfig(seed=3), tracer=tracer)
    srv = eng.add_server("srv1", documents={"doc": (av_markup(2.0), "x")})
    comp = eng.build_client_composition(av_markup(2.0), srv)
    # A stray packet to a port nothing bound on the viewer host.
    eng.network.send(Packet(src=srv.node_id, dst=eng.CLIENT, size_bytes=100,
                            protocol="UDP", flow_id="stray",
                            dst_port=65_000))
    eng.sim.run()
    assert eng.network.node(eng.CLIENT).rx_discarded == 1
    assert eng.network.node(srv.node_id).rx_discarded == 0
    result = comp.collect_result("doc")
    assert result.rx_discarded == 1
    assert result.to_dict()["rx_discarded"] == 1
    discards = select(tracer, kind="net.rx_discard")
    assert len(discards) == 1
    assert discards[0].node == eng.CLIENT
    assert discards[0].args["port"] == 65_000


# -- server-side ports come from the node's allocator -------------------------

def test_senders_do_not_clash_with_a_thousand_control_channels():
    """Ten control ports per session walk the server host's ``control``
    range (10 000-30 000) past 20 000, where a process-global sender
    counter used to start."""
    eng = ServiceEngine(EngineConfig(seed=1))
    srv = eng.add_server("srv1", documents={"doc": (av_markup(2.0), "x")})
    for i in range(1001):
        eng.open_session("srv1", f"u{i}", "pw")
    host = eng.network.node(srv.node_id)
    assert 20_000 in host.bound_ports()
    ms = srv.media_servers["vidsrv"]
    assert ms.node_id == srv.node_id  # co-hosted (§6.1)
    pump, _conv = ms.start_stream("sess-x", "/v.mpg", stream_id="V",
                                  client_node=eng.CLIENT, client_port=40_000,
                                  duration_s=2.0)
    assert host.ports.allocated("media") == 1
    ms.stop_stream("sess-x", "V")
    assert host.ports.allocated("media") == 0


def test_mail_ports_come_from_the_node_allocator():
    from repro.des import Simulator
    from repro.hermes import MailMessage, MailService
    from repro.net import Network

    sim = Simulator()
    net = Network(sim)
    for node_id in ("hub", "pc"):
        node = net.add_node(node_id)
        # a control channel already sits where mail used to start
        node.ports.claim(25_000, 10, "control")
        node.bind(25_000, lambda pkt: None)
    net.add_duplex_link("pc", "hub", 2e6, 0.01)
    svc = MailService(sim, net, hub_node="hub")
    svc.register("alice", "pc")
    svc.register("tutor", "hub")
    svc.send(MailMessage(sender="alice", recipient="tutor", subject="Q",
                         body="?"))
    assert net.node("pc").ports.allocated("media") == 1
    sim.run()
    assert svc.delivered == 1
    assert net.node("pc").ports.allocated("media") == 0
    assert net.node("hub").ports.allocated("media") == 1  # the hub's own


# -- conservation: ports allocated = released (ROADMAP 3a) --------------------

def _star_unicast():
    eng = ServiceEngine(EngineConfig(seed=5))
    eng.add_server("srv1", documents={"doc": (av_markup(2.0), "x")})
    eng.orchestrator.run_population(3, "srv1", "doc", stagger_s=0.3)
    return eng


def _cdn_shared():
    from repro.net import cdn_stack

    eng = ServiceEngine(EngineConfig(seed=5, shared_flows=True),
                        layers=cdn_stack(clients_per_region=2))
    eng.add_server("srv1", documents={"doc": (av_markup(2.0), "x")})
    eng.orchestrator.run_population(4, "srv1", "doc", stagger_s=0.0)
    return eng


def _chaos_crash():
    from repro.obs.bench import run_scenario

    return run_scenario("crash", smoke=True).engine


@pytest.mark.parametrize("run", [_star_unicast, _cdn_shared, _chaos_crash])
def test_every_media_and_rtcp_port_is_released_after_a_run(run):
    eng = run()
    lo, hi = DEFAULT_PORT_RANGES["control"]
    for node in eng.network.nodes.values():
        assert node.ports.allocated("media") == 0, node.node_id
        assert node.ports.allocated("rtcp") == 0, node.node_id
        # what stays bound is the control channels, which stay up
        assert all(lo <= port < hi for port in node.bound_ports()), \
            (node.node_id, node.bound_ports())
