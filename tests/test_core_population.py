"""Tests for multi-client populations on per-client access links."""

import pytest

from repro.core import (
    EngineConfig,
    ServiceEngine,
    SessionSpec,
    TrafficConfig,
)
from repro.core.experiments import av_markup
from repro.net import PortExhaustedError


def engine(capacity_bps=100e6, access=8e6, seed=10, **kw):
    eng = ServiceEngine(EngineConfig(
        access_rate_bps=access,
        admission_capacity_bps=capacity_bps,
        seed=seed,
        **kw,
    ))
    eng.add_server("srv1", documents={"doc": (av_markup(5.0), "x")})
    return eng


def test_population_runs_on_distinct_access_links():
    eng = engine()
    pop = eng.orchestrator.run_population(4, "srv1", "doc", stagger_s=0.25)
    assert len(pop) == 4
    assert all(o.completed for o in pop)
    nodes = [o.client_node for o in pop]
    assert len(set(nodes)) == 4
    # Each viewer host has its own access link pair to the router.
    for node in nodes:
        assert (ServiceEngine.ROUTER, node) in eng.network.links
        assert (node, ServiceEngine.ROUTER) in eng.network.links
        assert eng.network.links[(ServiceEngine.ROUTER, node)].stats.tx_packets > 0
    # Each viewer streamed cleanly on its own 8 Mb/s link.
    for o in pop:
        assert o.result.total_gaps() == 0
        assert o.result.client_node == o.client_node


def test_population_port_isolation():
    """No shared port namespace: every client draws media ports from
    its own node allocator, which session teardown fully returns."""
    eng = engine()
    pop = eng.orchestrator.run_population(4, "srv1", "doc", stagger_s=0.1)
    assert all(o.completed for o in pop)
    probe_ports = []
    for o in pop:
        node = eng.network.node(o.client_node)
        # Teardown released every media port the session allocated.
        assert node.ports.allocated("media") == 0
        assert not [p for p in node.bound_ports() if p >= 40_000]
        # Drained deterministic allocators all sit at the same base
        # port — a shared namespace would hand each probe a new one.
        probe_ports.append(node.ports.allocate("media"))
    assert len(set(probe_ports)) == 1, "clients should reuse identical ports"
    for o, port in zip(pop, probe_ports):
        eng.network.node(o.client_node).ports.release(port)


def test_population_admission_rejections_under_oversubscription():
    # Basic contracts see 70% of 6 Mb/s: two 2 Mb/s viewers fit.
    eng = engine(capacity_bps=6e6)
    pop = eng.orchestrator.run_population(5, "srv1", "doc", stagger_s=0.1)
    assert len(pop.completed()) == 2
    assert len(pop.rejected()) == 3
    for o in pop.rejected():
        assert "exceeds" in o.result.events[0]


def test_population_deterministic_under_fixed_seed():
    def digests(seed):
        eng = engine(seed=seed)
        pop = eng.orchestrator.run_population(4, "srv1", "doc", stagger_s=0.25)
        return [
            (o.session_id, o.client_node,
             o.result.streams["V"].frames_played,
             o.result.streams["V"].packets_received,
             o.result.total_gaps(), round(o.result.worst_skew_s(), 9))
            for o in pop
        ]

    assert digests(3) == digests(3)
    # Per-engine session ids: both runs start at sess-1.
    assert digests(3)[0][0] == "sess-1"


def test_population_poisson_arrivals_reproducible():
    def starts():
        eng = engine()
        pop = eng.orchestrator.run_population(4, "srv1", "doc",
                                              interarrival_mean_s=0.4)
        return [o.start_at for o in pop]

    first, second = starts(), starts()
    assert first == second
    assert first == sorted(first)
    assert len(set(first)) == 4


def test_population_mixed_documents_and_contracts():
    eng = engine()
    eng.add_document("srv1", "doc2", av_markup(3.0), "y")
    pop = eng.orchestrator.run_population(
        4, "srv1", ["doc", "doc2"], contract=["basic", "premium"],
        stagger_s=0.1)
    assert [o.document for o in pop] == ["doc", "doc2", "doc", "doc2"]
    assert [o.contract for o in pop] == ["basic", "premium"] * 2
    assert all(o.completed for o in pop)


def test_population_reuses_clients_across_runs():
    eng = engine()
    eng.orchestrator.run_population(3, "srv1", "doc", stagger_s=0.1,
                                    horizon_s=30.0)
    n_nodes = len(eng.network.nodes)
    eng.orchestrator.run_population(3, "srv1", "doc", stagger_s=0.1,
                                    horizon_s=30.0)
    assert len(eng.network.nodes) == n_nodes, "no leaked client nodes"


def test_targeted_cross_traffic_hits_one_viewer():
    """Cross traffic aimed at one client's access link hurts that
    viewer and leaves the others clean."""
    eng = ServiceEngine(EngineConfig(
        access_rate_bps=2.5e6,
        admission_capacity_bps=100e6,
        seed=4,
        traffic=[TrafficConfig(kind="poisson", rate_bps=2.0e6,
                               target="client1")],
    ))
    eng.add_server("srv1", documents={"doc": (av_markup(6.0), "x")})
    eng.client_nodes(3)  # create client1..client3 before traffic starts
    pop = eng.orchestrator.run_population(3, "srv1", "doc", stagger_s=0.1)
    by_client = {o.client_node: o.result for o in pop}
    congested = by_client["client1"]
    clean_gaps = [by_client[c].total_gaps() for c in ("client2", "client3")]
    assert congested.loss_ratio() > 0.0
    assert congested.total_gaps() > max(clean_gaps)


def test_workload_mixes_servers_in_one_run():
    eng = engine()
    eng.add_server("srv2", documents={"other": (av_markup(3.0), "z")})
    nodes = eng.client_nodes(2)
    outcomes = eng.orchestrator.run_workload([
        SessionSpec(server="srv1", document="doc", user_id="u1",
                    client_node=nodes[0]),
        SessionSpec(server="srv2", document="other", user_id="u2",
                    start_at=0.5, client_node=nodes[1]),
    ])
    assert [o.server for o in outcomes] == ["srv1", "srv2"]
    assert all(o.completed for o in outcomes)
    assert outcomes[0].session_id != outcomes[1].session_id


def test_client_nodes_validation():
    eng = engine()
    with pytest.raises(ValueError):
        eng.client_nodes(0)
    with pytest.raises(ValueError):
        eng.orchestrator.run_workload([])


def test_port_exhaustion_is_explicit():
    eng = engine()
    node = eng.network.node(eng.CLIENT)
    with pytest.raises(PortExhaustedError) as exc:
        node.ports.allocate_block(100_000, "media")
    assert "media" in str(exc.value)
    assert eng.CLIENT in str(exc.value)


def test_session_ids_are_per_engine():
    """Two engines in one process both start at sess-1."""
    eng_a, eng_b = engine(), engine()
    _, handler_a = eng_a.open_session("srv1", "u", "pw")
    _, handler_b = eng_b.open_session("srv1", "u", "pw")
    assert handler_a.session_id == "sess-1"
    assert handler_b.session_id == "sess-1"
    _, handler_a2 = eng_a.open_session("srv1", "u2", "pw")
    assert handler_a2.session_id == "sess-2"
