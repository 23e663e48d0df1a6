"""Declarative topology composition: a layer stack compiled onto ``net``.

The paper's §6.1 star (clients — router — server hosts) is one
instance of a family of service topologies; the ROADMAP north-star
(heavy traffic from millions of users) needs regional points of
presence, replica placement and per-region client populations. This
module expresses a topology as an ordered stack of declarative
**layers** — the composable-layer idiom of network emulators — that a
:class:`TopologyCompiler` renders onto the imperative
:class:`~repro.net.topology.Network` model:

* :class:`CoreNetworkLayer` — the backbone core router every other
  layer attaches to (owns the backbone link parameters);
* :class:`RegionLayer` — regional POP routers with their links into
  the core (a *colocated* region rides the core router itself: the
  degenerate single-region stack is exactly the paper's star);
* :class:`MediaPlacementLayer` — where origin server hosts attach and
  which regions receive media-server replicas (consumed by the
  service engine, which owns server construction);
* :class:`PopulationLayer` — per-region client populations, each
  client on its own access link to its region's POP.

Compilation is deterministic: layers compile in rank order (core →
regions → placement → population), and within a layer in declaration
order, so a given stack always produces the identical node/link
sequence — the property the population digests rely on.

The compiled artifact, :class:`CompiledTopology`, keeps the classic
builder surface (``add_client`` / ``add_server_host`` /
``add_traffic_host``) so the engine can keep growing the topology
incrementally after compile, plus the region registry
(:meth:`CompiledTopology.region_of`) that region-aware session
placement and failover use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.net.topology import Network, Node

__all__ = [
    "AccessLinkSpec",
    "RegionSpec",
    "PopulationSpec",
    "TopologyLayer",
    "CoreNetworkLayer",
    "RegionLayer",
    "MediaPlacementLayer",
    "PopulationLayer",
    "MediaPlacement",
    "CompiledTopology",
    "TopologyCompiler",
    "cdn_stack",
]


@dataclass(frozen=True, slots=True)
class AccessLinkSpec:
    """Parameters of one client's access link (both directions).

    ``loss_model`` (e.g. Gilbert–Elliott) applies to the downstream
    router→client direction — the shared path all media arrive on.
    """

    rate_bps: float = 10e6
    delay_s: float = 0.010
    queue_packets: int = 60
    atm: bool = False
    loss_model: object | None = None

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("access rate must be positive")
        if self.queue_packets < 1:
            raise ValueError("access queue must hold at least one packet")

    def derive(self, **overrides: object) -> "AccessLinkSpec":
        """A copy of this spec with the given fields replaced.

        The one place link parameters vary between call sites, so a
        heterogeneous population derives from one template instead of
        re-specifying every field per client::

            base = AccessLinkSpec(rate_bps=25e6)
            slow = base.derive(rate_bps=2e6, delay_s=0.040)
        """
        import dataclasses

        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise TypeError(
                f"AccessLinkSpec has no field(s) {sorted(unknown)}"
            )
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class RegionSpec:
    """One regional POP: a router linked into the backbone core.

    A *colocated* region has no POP of its own — its clients and hosts
    attach straight to the core router, as everything does in the
    engine's default one-layer star.
    """

    name: str
    #: POP ↔ core regional link parameters
    link_rate_bps: float = 100e6
    link_delay_s: float = 0.005
    queue_packets: int = 500
    #: ride the core router instead of owning a POP
    colocated: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region name must be non-empty")
        if self.link_rate_bps <= 0:
            raise ValueError("regional link rate must be positive")

    @property
    def pop_id(self) -> str:
        return f"pop:{self.name}"


@dataclass(frozen=True, slots=True)
class PopulationSpec:
    """A client population inside one region."""

    region: str
    n_clients: int
    #: per-client node id template ({region} and {i} substituted)
    name_format: str = "{region}-c{i}"

    def __post_init__(self) -> None:
        if self.n_clients < 0:
            raise ValueError("n_clients must be >= 0")

    def node_ids(self) -> list[str]:
        return [
            self.name_format.format(region=self.region, i=i)
            for i in range(1, self.n_clients + 1)
        ]


@dataclass(frozen=True, slots=True)
class MediaPlacement:
    """Where media lives: origin attachment plus replica regions."""

    #: region the origin server hosts attach to (None = core)
    origin_region: str | None = None
    #: regions that receive a media-server replica per media server
    #: (None = every non-colocated region, in declaration order)
    replicate_to: tuple[str, ...] | None = None


class CompileContext:
    """What a layer sees while compiling: the target + shared state."""

    def __init__(
        self,
        network: Network,
        compiled: "CompiledTopology",
        access_spec_for: Callable[[str], AccessLinkSpec],
    ) -> None:
        self.network = network
        self.compiled = compiled
        #: node id -> the access-link spec to stamp that client with
        #: (the engine routes per-client loss processes through this)
        self.access_spec_for = access_spec_for


class TopologyLayer:
    """Base class: one declarative slice of the topology.

    ``RANK`` fixes the compile order across layer kinds; within one
    kind, declaration order rules. Subclasses override
    :meth:`compile` to render themselves into the context.
    """

    RANK = 50
    name = "layer"

    def compile(self, ctx: CompileContext) -> None:
        raise NotImplementedError


class CoreNetworkLayer(TopologyLayer):
    """The backbone core: one router plus the backbone link defaults."""

    RANK = 0
    name = "core"

    def __init__(
        self,
        router: str = "router",
        *,
        backbone_rate_bps: float = 100e6,
        backbone_delay_s: float = 0.005,
        backbone_queue_packets: int = 500,
    ) -> None:
        if backbone_rate_bps <= 0:
            raise ValueError("backbone rate must be positive")
        self.router = router
        self.backbone_rate_bps = backbone_rate_bps
        self.backbone_delay_s = backbone_delay_s
        self.backbone_queue_packets = backbone_queue_packets

    def compile(self, ctx: CompileContext) -> None:
        c = ctx.compiled
        c.core = self.router
        c.backbone_rate_bps = self.backbone_rate_bps
        c.backbone_delay_s = self.backbone_delay_s
        c.backbone_queue_packets = self.backbone_queue_packets
        if self.router not in ctx.network.nodes:
            ctx.network.add_node(self.router)


class RegionLayer(TopologyLayer):
    """Regional POP routers, each linked into the core."""

    RANK = 10
    name = "regions"

    def __init__(self, regions: list[RegionSpec] | tuple[RegionSpec, ...]):
        names = [r.name for r in regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names in {names}")
        self.regions = tuple(regions)

    def compile(self, ctx: CompileContext) -> None:
        c = ctx.compiled
        for spec in self.regions:
            if spec.name in c.regions:
                raise ValueError(f"region {spec.name!r} declared twice")
            c.regions[spec.name] = spec
            if spec.colocated:
                c.pops[spec.name] = c.core
                continue
            ctx.network.add_node(spec.pop_id)
            ctx.network.add_duplex_link(
                spec.pop_id, c.core, spec.link_rate_bps, spec.link_delay_s,
                queue_packets=spec.queue_packets,
            )
            c.pops[spec.name] = spec.pop_id


class MediaPlacementLayer(TopologyLayer):
    """Declares origin attachment and replica regions.

    The layer owns *placement*, not server construction: compiling it
    validates the named regions and records a
    :class:`MediaPlacement` on the compiled topology for the service
    engine (which owns media servers) to consume when it provisions a
    multimedia server and its per-POP replicas.
    """

    RANK = 20
    name = "media"

    def __init__(
        self,
        origin_region: str | None = None,
        replicate_to: tuple[str, ...] | list[str] | None = None,
    ) -> None:
        self.origin_region = origin_region
        self.replicate_to = (
            tuple(replicate_to) if replicate_to is not None else None
        )

    def compile(self, ctx: CompileContext) -> None:
        c = ctx.compiled
        for region in (self.replicate_to or ()) + (
            (self.origin_region,) if self.origin_region else ()
        ):
            if region not in c.regions:
                raise KeyError(
                    f"media placement names unknown region {region!r}"
                )
        c.placement = MediaPlacement(
            origin_region=self.origin_region,
            replicate_to=self.replicate_to,
        )


class PopulationLayer(TopologyLayer):
    """Per-region client populations on individual access links."""

    RANK = 30
    name = "population"

    def __init__(
        self, populations: list[PopulationSpec] | tuple[PopulationSpec, ...]
    ) -> None:
        self.populations = tuple(populations)

    def compile(self, ctx: CompileContext) -> None:
        c = ctx.compiled
        for pop in self.populations:
            if pop.region not in c.regions:
                raise KeyError(
                    f"population names unknown region {pop.region!r}"
                )
            for node_id in pop.node_ids():
                c.add_client(
                    node_id, ctx.access_spec_for(node_id), region=pop.region
                )


class CompiledTopology:
    """A rendered layer stack, still open for incremental growth.

    Exposes the classic builder surface (clients, server hosts,
    traffic hosts) plus the region registry; every mutation keeps the
    deterministic node/link call sequence the digests depend on.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.core: str = "router"
        self.backbone_rate_bps: float = 100e6
        self.backbone_delay_s: float = 0.005
        self.backbone_queue_packets: int = 500
        self.regions: dict[str, RegionSpec] = {}
        #: region name -> attachment router node (POP or core)
        self.pops: dict[str, str] = {}
        self.placement: MediaPlacement | None = None
        self.clients: list[str] = []
        self.server_hosts: list[str] = []
        self.traffic_hosts: list[str] = []
        self._node_region: dict[str, str] = {}

    # -- region registry ---------------------------------------------------
    @property
    def router(self) -> str:
        """The core router id (its pre-layer name)."""
        return self.core

    def region_names(self) -> list[str]:
        """Declared regions, in declaration order."""
        return list(self.regions)

    def pop_router(self, region: str | None) -> str:
        """The attachment router for ``region`` (None = the core)."""
        if region is None:
            return self.core
        try:
            return self.pops[region]
        except KeyError:
            raise KeyError(f"no region {region!r}") from None

    def region_of(self, node_id: str) -> str | None:
        """Which region a client/host node belongs to (None = core)."""
        return self._node_region.get(node_id)

    def replica_regions(self) -> list[str]:
        """Regions that should receive media replicas, in order."""
        if self.placement is None:
            return []
        if self.placement.replicate_to is not None:
            return list(self.placement.replicate_to)
        return [
            name for name, spec in self.regions.items() if not spec.colocated
        ]

    # -- incremental growth (the classic builder surface) ------------------
    def add_client(
        self,
        node_id: str,
        spec: AccessLinkSpec | None = None,
        region: str | None = None,
    ) -> Node:
        """Add a client host on its own access link.

        Downstream (router → client) carries the loss model: it is the
        bottleneck all of this viewer's media share. ``region`` picks
        the attachment POP (default: the core router).
        """
        spec = spec if spec is not None else AccessLinkSpec()
        attach = self.pop_router(region)
        node = self.network.add_node(node_id)
        self.network.add_link(
            attach, node_id, spec.rate_bps, spec.delay_s,
            queue_packets=spec.queue_packets, loss_model=spec.loss_model,
            atm=spec.atm,
        )
        self.network.add_link(
            node_id, attach, spec.rate_bps, spec.delay_s,
            queue_packets=spec.queue_packets, atm=spec.atm,
        )
        self.clients.append(node_id)
        if region is not None:
            self._node_region[node_id] = region
        return node

    def _add_backbone_host(
        self, node_id: str, delay_s: float, region: str | None
    ) -> Node:
        attach = self.pop_router(region)
        node = self.network.add_node(node_id)
        self.network.add_duplex_link(
            node_id, attach, self.backbone_rate_bps, delay_s,
            queue_packets=self.backbone_queue_packets,
        )
        if region is not None:
            self._node_region[node_id] = region
        return node

    def add_server_host(
        self, node_id: str, region: str | None = None
    ) -> Node:
        """Add a multimedia/media server host behind a router."""
        node = self._add_backbone_host(node_id, self.backbone_delay_s, region)
        self.server_hosts.append(node_id)
        return node

    def add_traffic_host(
        self, node_id: str, delay_s: float = 0.001,
        region: str | None = None,
    ) -> Node:
        """Add a cross-traffic source host behind a router."""
        node = self._add_backbone_host(node_id, delay_s, region)
        self.traffic_hosts.append(node_id)
        return node


class TopologyCompiler:
    """Renders an ordered layer stack onto a network.

    Layers compile in ``RANK`` order (stable across declaration
    order), so a stack can be assembled in any order and still render
    deterministically. Exactly one :class:`CoreNetworkLayer` is
    required; everything else is optional.
    """

    def __init__(self, layers: list[TopologyLayer] | tuple[TopologyLayer, ...]):
        cores = [ly for ly in layers if isinstance(ly, CoreNetworkLayer)]
        if len(cores) != 1:
            raise ValueError(
                f"a stack needs exactly one CoreNetworkLayer, got {len(cores)}"
            )
        self.layers = tuple(sorted(layers, key=lambda ly: ly.RANK))

    def compile(
        self,
        network: Network,
        *,
        access_spec_for: Callable[[str], AccessLinkSpec] | None = None,
    ) -> "CompiledTopology":
        """Render the stack; returns the compiled topology.

        ``access_spec_for`` supplies per-client access specs (the
        engine hooks per-client loss streams through it).
        """
        compiled = CompiledTopology(network)
        ctx = CompileContext(
            network, compiled,
            access_spec_for if access_spec_for is not None
            else lambda _node: AccessLinkSpec(),
        )
        for layer in self.layers:
            layer.compile(ctx)
        return compiled


def cdn_stack(
    regions: tuple[str, ...] = ("east", "west"),
    clients_per_region: int = 4,
    *,
    router: str = "router",
    backbone_rate_bps: float = 100e6,
    backbone_delay_s: float = 0.005,
    backbone_queue_packets: int = 500,
    region_rate_bps: float = 100e6,
    region_delay_s: float = 0.008,
    replicate: bool = True,
) -> list[TopologyLayer]:
    """The canonical CDN stack: core + N regions + placement + viewers.

    Origin server hosts stay at the core; each region gets a POP, a
    client population, and (with ``replicate``) a media replica per
    media server. This is the stack behind ``repro bench --topology
    cdn`` and the CDN examples/tests.
    """
    return [
        CoreNetworkLayer(
            router=router,
            backbone_rate_bps=backbone_rate_bps,
            backbone_delay_s=backbone_delay_s,
            backbone_queue_packets=backbone_queue_packets,
        ),
        RegionLayer([
            RegionSpec(name, link_rate_bps=region_rate_bps,
                       link_delay_s=region_delay_s,
                       queue_packets=backbone_queue_packets)
            for name in regions
        ]),
        MediaPlacementLayer(
            replicate_to=tuple(regions) if replicate else (),
        ),
        PopulationLayer([
            PopulationSpec(region, clients_per_region) for region in regions
        ]),
    ]
