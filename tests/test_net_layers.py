"""Declarative topology layers: specs, compiler, and the one-layer star.

The tentpole contract: the classic star is now a one-layer stack, and
compiling it must be byte-identical (population digest) to the
pre-layer imperative builder — every node, link, and RNG stream in the
same order.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.faults import population_digest
from repro.faults.scenarios import chaos_markup
from repro.net import (
    AccessLinkSpec,
    CompiledTopology,
    CoreNetworkLayer,
    MediaPlacementLayer,
    PopulationLayer,
    PopulationSpec,
    RegionLayer,
    RegionSpec,
    TopologyCompiler,
    cdn_stack,
)
from repro.net.topology import Network
from repro.des import Simulator


# -- AccessLinkSpec defaults + derive() ---------------------------------------

def test_access_spec_has_usable_defaults():
    spec = AccessLinkSpec()
    assert spec.rate_bps > 0
    assert spec.delay_s > 0
    assert spec.queue_packets > 0
    assert spec.loss_model is None


def test_derive_overrides_only_named_fields():
    base = AccessLinkSpec(rate_bps=10e6, delay_s=0.010)
    fast = base.derive(rate_bps=25e6)
    assert fast.rate_bps == 25e6
    assert fast.delay_s == base.delay_s
    assert fast.queue_packets == base.queue_packets
    # the base is frozen and untouched
    assert base.rate_bps == 10e6


def test_derive_rejects_unknown_fields():
    with pytest.raises(TypeError):
        AccessLinkSpec().derive(bandwidth=1e6)


def test_derive_revalidates():
    with pytest.raises(ValueError):
        AccessLinkSpec().derive(rate_bps=-1)


# -- compiler validation ------------------------------------------------------

def _network():
    return Network(Simulator())


def test_compiler_requires_exactly_one_core_layer():
    with pytest.raises(ValueError):
        TopologyCompiler(())
    with pytest.raises(ValueError):
        TopologyCompiler((CoreNetworkLayer(), CoreNetworkLayer()))


def test_duplicate_region_rejected():
    with pytest.raises(ValueError):
        RegionLayer((RegionSpec("east"), RegionSpec("east")))
    # ... and across two RegionLayer instances, at compile time
    stack = (
        CoreNetworkLayer(),
        RegionLayer((RegionSpec("east"),)),
        RegionLayer((RegionSpec("east"),)),
    )
    with pytest.raises(ValueError):
        TopologyCompiler(stack).compile(_network())


def test_placement_must_name_known_regions():
    stack = (
        CoreNetworkLayer(),
        RegionLayer((RegionSpec("east"),)),
        MediaPlacementLayer(replicate_to=("west",)),
    )
    with pytest.raises(KeyError):
        TopologyCompiler(stack).compile(_network())


def test_population_must_name_known_region():
    stack = (
        CoreNetworkLayer(),
        PopulationLayer((PopulationSpec("nowhere", 2),)),
    )
    with pytest.raises(KeyError):
        TopologyCompiler(stack).compile(_network())


# -- compiled shape -----------------------------------------------------------

def test_region_layer_builds_pops_behind_the_core():
    stack = (
        CoreNetworkLayer(),
        RegionLayer((RegionSpec("east"), RegionSpec("west"))),
    )
    topo = TopologyCompiler(stack).compile(_network())
    assert topo.router == "router"
    assert topo.pop_router("east") == "pop:east"
    assert ("router", "pop:east") in topo.network.links
    assert ("pop:west", "router") in topo.network.links
    assert topo.region_names() == ["east", "west"]


def test_colocated_region_rides_the_core_router():
    stack = (
        CoreNetworkLayer(),
        RegionLayer((RegionSpec("metro", colocated=True),)),
    )
    topo = TopologyCompiler(stack).compile(_network())
    assert topo.pop_router("metro") == topo.router
    assert "pop:metro" not in topo.network.nodes
    # colocated regions never receive replicas
    assert "metro" not in topo.replica_regions()


def test_population_layer_attaches_clients_to_their_pop():
    stack = (
        CoreNetworkLayer(),
        RegionLayer((RegionSpec("east"),)),
        PopulationLayer((PopulationSpec("east", 2),)),
    )
    topo = TopologyCompiler(stack).compile(_network())
    assert topo.clients == ["east-c1", "east-c2"]
    assert topo.region_of("east-c1") == "east"
    # each viewer hangs off its region's POP, not the core
    assert ("pop:east", "east-c1") in topo.network.links


def test_cdn_stack_end_to_end_shape():
    topo = TopologyCompiler(cdn_stack(clients_per_region=2)).compile(
        _network()
    )
    assert topo.region_names() == ["east", "west"]
    assert topo.clients == ["east-c1", "east-c2", "west-c1", "west-c2"]
    assert topo.placement is not None
    assert topo.replica_regions() == ["east", "west"]


# -- A/B: the engine's default star vs an explicit one-layer stack ------------

def _digest(layers):
    eng = ServiceEngine(EngineConfig(seed=11), layers=layers)
    eng.add_server("srv1", documents={"doc": (chaos_markup(2.0), "t")})
    pop = eng.orchestrator.run_population(2, "srv1", "doc", stagger_s=0.3)
    return population_digest(pop)


def test_single_region_stack_is_byte_identical_to_builder():
    # layers=None makes the engine build its own one-layer stack from
    # the config; an explicit bare-core stack must compile the same
    # topology, streams, and event order — the acceptance digest check.
    assert _digest(None) == _digest([CoreNetworkLayer()])


def test_builder_is_a_compiled_topology():
    net = _network()
    topo = TopologyCompiler([CoreNetworkLayer()]).compile(net)
    assert isinstance(topo, CompiledTopology)
    assert topo.router == "router"
    topo.add_client("c1", AccessLinkSpec())
    assert topo.clients == ["c1"]
    assert ("router", "c1") in net.links
