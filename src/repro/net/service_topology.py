"""The service topology: the paper's star, optionally with regional POPs.

The paper's §6.1 network is a star (clients — router — server hosts).
The one other shape this simulator builds is that star plus regional
points of presence: each region is a POP router linked into the core,
a viewer population on individual access links behind the POP, and one
media replica per media server (the regional-server hierarchy of
large-scale video on demand). A :class:`ServiceTopology` renders either
onto the imperative :class:`~repro.net.topology.Network` model; the
regions are a tuple of :class:`RegionSpec`, and :func:`cdn_stack`
builds the canonical one.

Construction order is the contract the population digests rely on: the
core router, then every region's POP with its core link in declaration
order, then every region's viewers in declaration order — so a given
tuple of regions always produces the identical node / link / loss-stream
sequence. The topology stays open afterwards: ``add_client`` /
``add_server_host`` / ``add_traffic_host`` grow it incrementally, and
the region registry (:meth:`ServiceTopology.region_of`) is what
region-aware session placement and failover read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.net.topology import Network, Node

__all__ = ["AccessLinkSpec", "RegionSpec", "ServiceTopology", "cdn_stack"]

#: the core router's node id
ROUTER = "router"
#: every server host's link pair to its router (the paper-era backbone)
BACKBONE_RATE_BPS = 100e6
BACKBONE_DELAY_S = 0.005
BACKBONE_QUEUE_PACKETS = 500
#: a client's access link, each direction
ACCESS_DELAY_S = 0.010
#: every POP's link pair to the core router
REGION_LINK_RATE_BPS = 100e6
REGION_LINK_DELAY_S = 0.008
REGION_QUEUE_PACKETS = 500
#: a cross-traffic host sits 1 ms behind the core router
TRAFFIC_HOST_DELAY_S = 0.001


@dataclass(frozen=True, slots=True)
class AccessLinkSpec:
    """Parameters of one client's access link (both directions).

    ``loss_model`` (e.g. Gilbert–Elliott) applies to the downstream
    router→client direction — the shared path all media arrive on.
    """

    rate_bps: float = 10e6
    queue_packets: int = 60
    atm: bool = False
    loss_model: object | None = None

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("access rate must be positive")
        if self.queue_packets < 1:
            raise ValueError("access queue must hold at least one packet")


@dataclass(frozen=True, slots=True)
class RegionSpec:
    """One region: a POP router behind the core and its viewers.

    The service engine adds one ``{media}@{region}`` replica per media
    server behind the POP; origin server hosts stay at the core.
    """

    name: str
    #: viewers ``{name}-c1`` .. ``{name}-c{n_clients}``, each on its own
    #: access link to the POP
    n_clients: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region name must be non-empty")
        if self.n_clients < 0:
            raise ValueError("n_clients must be >= 0")

    @property
    def pop_id(self) -> str:
        return f"pop:{self.name}"


class ServiceTopology:
    """The core router, the regions behind it, and whatever is added later.

    ``access_spec_for`` maps a viewer's node id to its access-link spec
    (the engine routes per-client loss processes through it); every
    server and traffic host link runs at ``BACKBONE_RATE_BPS`` with
    ``BACKBONE_QUEUE_PACKETS`` of queue.
    """

    def __init__(
        self,
        network: Network,
        regions: tuple[RegionSpec, ...] = (),
        *,
        access_spec_for: Callable[[str], AccessLinkSpec] | None = None,
    ) -> None:
        self.network = network
        self.router = ROUTER
        self._access_spec_for = (
            access_spec_for if access_spec_for is not None
            else lambda _node: AccessLinkSpec()
        )
        #: region name -> spec, in declaration order (the replica order)
        self.regions: dict[str, RegionSpec] = {}
        self.clients: list[str] = []
        self._node_region: dict[str, str] = {}
        if ROUTER not in network.nodes:
            network.add_node(ROUTER)
        for spec in regions:
            if spec.name in self.regions:
                raise ValueError(f"region {spec.name!r} declared twice")
            self.regions[spec.name] = spec
            network.add_node(spec.pop_id)
            network.add_duplex_link(
                spec.pop_id, ROUTER, REGION_LINK_RATE_BPS,
                REGION_LINK_DELAY_S, queue_packets=REGION_QUEUE_PACKETS,
            )
        for spec in regions:
            for i in range(1, spec.n_clients + 1):
                self.add_client(f"{spec.name}-c{i}", region=spec.name)

    # -- region registry ---------------------------------------------------
    def pop_router(self, region: str | None) -> str:
        """The attachment router for ``region`` (None = the core)."""
        if region is None:
            return self.router
        try:
            return self.regions[region].pop_id
        except KeyError:
            raise KeyError(f"no region {region!r}") from None

    def region_of(self, node_id: str) -> str | None:
        """Which region a client/host node belongs to (None = core)."""
        return self._node_region.get(node_id)

    # -- incremental growth ------------------------------------------------
    def add_client(
        self,
        node_id: str,
        spec: AccessLinkSpec | None = None,
        region: str | None = None,
    ) -> Node:
        """Add a client host on its own access link.

        Downstream (router → client) carries the loss model: it is the
        bottleneck all of this viewer's media share. ``region`` picks
        the attachment POP (default: the core router); ``spec``
        defaults to what ``access_spec_for`` gives this node.
        """
        attach = self.pop_router(region)
        if spec is None:
            spec = self._access_spec_for(node_id)
        node = self.network.add_node(node_id)
        self.network.add_link(
            attach, node_id, spec.rate_bps, ACCESS_DELAY_S,
            queue_packets=spec.queue_packets, loss_model=spec.loss_model,
            atm=spec.atm,
        )
        self.network.add_link(
            node_id, attach, spec.rate_bps, ACCESS_DELAY_S,
            queue_packets=spec.queue_packets, atm=spec.atm,
        )
        self.clients.append(node_id)
        if region is not None:
            self._node_region[node_id] = region
        return node

    def _add_backbone_host(
        self, node_id: str, delay_s: float, region: str | None = None
    ) -> Node:
        attach = self.pop_router(region)
        node = self.network.add_node(node_id)
        self.network.add_duplex_link(
            node_id, attach, BACKBONE_RATE_BPS, delay_s,
            queue_packets=BACKBONE_QUEUE_PACKETS,
        )
        if region is not None:
            self._node_region[node_id] = region
        return node

    def add_server_host(
        self, node_id: str, region: str | None = None
    ) -> Node:
        """Add a multimedia/media server host behind a router."""
        return self._add_backbone_host(node_id, BACKBONE_DELAY_S, region)

    def add_traffic_host(self, node_id: str) -> Node:
        """Add a cross-traffic source host behind the core router.

        The host's uplink belongs to the one source placed on it, which
        plans its packets across the link ahead of their emission
        instants and feeds them to the router's link to its target
        (:mod:`repro.net.traffic`); put nothing else there, and bind
        nothing at the target's port 9.
        """
        return self._add_backbone_host(node_id, TRAFFIC_HOST_DELAY_S)


def cdn_stack(clients_per_region: int = 4) -> tuple[RegionSpec, ...]:
    """The canonical CDN regions, ``east`` and ``west``: a POP, viewers
    and replicas in each.

    This is the topology behind ``repro bench --topology cdn`` and the
    CDN examples/tests.
    """
    return tuple(RegionSpec(name, clients_per_region)
                 for name in ("east", "west"))
