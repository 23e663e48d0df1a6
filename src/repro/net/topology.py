"""Network topology: nodes, links, shortest-path forwarding.

The :class:`Network` owns the adjacency and fills a node's next-link
table (Dijkstra on propagation delay) when it first forwards. Each
:class:`~repro.net.link.Link` holds its far node's table and forwards by
itself, or plans a packet across the next link in it when it alone
feeds that link; a packet for that node goes to :meth:`Node.deliver`,
which feeds the global :class:`~repro.net.packet.PacketTap`.
:meth:`Network.send` injects a packet at its source; RTP senders and
traffic sources offer theirs to the first link directly. A topology
change empties every table and takes back every plan made on them.

Endpoints (:class:`Node`) expose a small port-based dispatch: an
application binds a handler to a port and receives the packets
addressed to it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable

from repro.des import Simulator
from repro.net.link import Link, take_back
from repro.net.packet import Packet, PacketTap
from repro.net.ports import PortAllocator

__all__ = ["NoRouteError", "Node", "Network"]


class NoRouteError(Exception):
    """No path of links leads from one node to another."""


class Node:
    """A host or switch; applications bind handlers to ports.

    Each node owns a :class:`~repro.net.ports.PortAllocator`, so port
    namespaces are per-host: two client hosts can each bind port
    40 000 without conflict.
    """

    def __init__(self, network: "Network", node_id: str) -> None:
        self.network = network
        self.node_id = node_id
        self._sim = network.sim
        self._tap_flows = network.tap.count_by_flow
        self._tap_bytes = network.tap.bytes_by_protocol
        self.ports = PortAllocator(node_id)
        self._ports: dict[int, Callable[[Packet], None]] = {}
        self.rx_discarded = 0

    def bind(self, port: int, handler: Callable[[Packet], None]) -> None:
        if port in self._ports:
            raise ValueError(f"port {port} already bound on {self.node_id}")
        if self.network._fed:
            self.network._ports_change(self.node_id, port)
        self._ports[port] = handler

    def unbind(self, port: int) -> None:
        if self.network._fed:
            self.network._ports_change(self.node_id, port)
        self._ports.pop(port, None)

    def bound_ports(self) -> list[int]:
        return sorted(self._ports)

    def deliver(self, pkt: Packet) -> None:
        """Count, trace and dispatch a packet addressed here."""
        protocol = pkt.protocol
        self._tap_flows[protocol][pkt.flow_id] += 1
        self._tap_bytes[protocol] += pkt.size_bytes
        sim = self._sim
        if sim._tracing_detail:
            sim._tracer.emit(sim.now, "net.deliver", node=self.node_id,
                             port=pkt.dst_port, flow=pkt.flow_id, seq=pkt.seq,
                             session=pkt.session, frame=pkt.frame_seq)
        handler = self._ports.get(pkt.dst_port)
        if handler is not None:
            handler(pkt)
            return
        # Unbound ports discard, as an OS would — but count it, so a
        # misrouted flow is observable rather than silently black-holed.
        self.rx_discarded += 1
        if sim._tracing:
            sim._tracer.emit(sim.now, "net.rx_discard", node=self.node_id,
                             port=pkt.dst_port, seq=pkt.seq,
                             flow=pkt.flow_id, session=pkt.session,
                             frame=pkt.frame_seq)


class Network:
    """The simulated broadband network."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: dict[str, Node] = {}
        self.links: dict[tuple[str, str], Link] = {}
        self.tap = PacketTap()
        #: per-session frame ledger — what a session's result needs and
        #: no single endpoint holds, kept whether or not anything traces.
        #: Senders append one flat row per frame they packetize, (stream,
        #: frame seq, send instant), so a session's page is its frames
        #: in send order; a link drop writes ``{(flow, frame seq): RTP
        #: timestamp}`` of the frame the lost fragment belonged to.
        #: Pages are deques: they grow in fixed blocks that never move,
        #: where a few thousand lists reallocated frame by frame beside
        #: the run's large ones fragment the heap (5 MB of peak RSS on
        #: an 8-viewer run, measured).
        self.frames_sent: dict[str, deque[Any]] = {}
        self.frames_hit: dict[str, dict[tuple[str, int], int]] = {}
        #: node -> {neighbour -> link}, both in insertion order: the
        #: order routing relaxes in, which decides equal-delay ties
        self._adj: dict[str, dict[str, Link]] = {}
        #: node -> {destination -> outgoing link}: what the data plane
        #: reads per hop. A node's table is filled whole the first time
        #: it forwards; all are emptied when the topology changes.
        self._out_links: dict[str, dict[str, Link]] = {}
        self._routed = False
        #: the links a traffic source feeds (``Link._feeder``), as an
        #: ordered set (catch-ups run in a fixed order): every reader of
        #: what their packets change catches them up first
        self._fed: dict[Link, None] = {}

    # -- construction ----------------------------------------------------
    def add_node(self, node_id: str) -> Node:
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already exists")
        node = Node(self, node_id)
        self.nodes[node_id] = node
        self._adj[node_id] = {}
        self._out_links[node_id] = {}
        self._invalidate_routes()
        return node

    def add_link(
        self,
        src: str,
        dst: str,
        rate_bps: float,
        delay_s: float,
        queue_packets: int = 100,
        loss_model=None,
        atm: bool = False,
    ) -> Link:
        """Add a unidirectional link (call twice for a duplex pair).

        ``atm=True`` gives the link an ATM cell layer (53-byte cells,
        per-cell loss — the paper's future-work testbed).
        """
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError("both endpoints must be added before the link")
        if (src, dst) in self.links:
            raise ValueError(f"link {src}->{dst} already exists")
        if atm:
            from repro.net.atm import AtmLink

            link: Link = AtmLink(
                self.sim, src, dst, rate_bps, delay_s,
                queue_packets=queue_packets, loss_model=loss_model,
            )
        else:
            link = Link(
                self.sim, src, dst, rate_bps, delay_s,
                queue_packets=queue_packets, loss_model=loss_model,
            )
        link.on_arrival = self.nodes[dst].deliver
        link.on_drop = self._on_link_drop
        link._next = self._out_links[dst]
        link._route = self._route
        self.links[(src, dst)] = link
        self._adj[src][dst] = link
        self._invalidate_routes()
        return link

    def add_duplex_link(
        self,
        a: str,
        b: str,
        rate_bps: float,
        delay_s: float,
        queue_packets: int = 100,
    ) -> tuple[Link, Link]:
        return (self.add_link(a, b, rate_bps, delay_s, queue_packets),
                self.add_link(b, a, rate_bps, delay_s, queue_packets))

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id!r}") from None

    # -- routing -----------------------------------------------------------
    def _route(self, src: str, dst: str) -> dict[str, str]:
        """Fill ``src``'s table by one Dijkstra pass on propagation delay.

        Returns each reachable node's predecessor on its shortest path,
        ``dst`` among them or :class:`NoRouteError`. Equal-delay ties
        fall where they always have (routes are part of every digest):
        a path gives way only to a strictly shorter one, equal distances
        pop in push order, neighbours relax in link-insertion order.
        """
        first = self._out_links[src]
        self._routed = True
        prev: dict[str, str] = {}
        best = {src: 0.0}
        fringe: list[tuple[float, int, str]] = [(0.0, 0, src)]
        pushed = 1
        while fringe:
            dist, _, node = heappop(fringe)
            if dist > best[node]:
                continue  # pushed before a shorter path turned up
            for nbr, link in self._adj[node].items():
                # a nanosecond a hop: fewer hops win among equal delays
                nbr_dist = dist + (link.delay_s + 1e-9)
                if nbr not in best or nbr_dist < best[nbr]:
                    best[nbr] = nbr_dist
                    prev[nbr] = node
                    first[nbr] = link if node == src else first[node]
                    heappush(fringe, (nbr_dist, pushed, nbr))
                    pushed += 1
        if dst not in prev and dst != src:
            raise NoRouteError(f"no route {src} -> {dst}")
        return prev

    def _invalidate_routes(self) -> None:
        # Tables fill only once packets flow, so while a topology is
        # being built there is nothing to clear.
        if self._routed:
            self._routed = False
            # a plan across a link, and a feed, followed the far node's
            # old route: every plan is taken back in one pass
            take_back([link for link in self.links.values()
                       if isinstance(link._owner, Link)])
            for link in list(self._fed):
                link._unfeed()
            for table in self._out_links.values():
                table.clear()

    # -- fed links -----------------------------------------------------------
    def catch_up(self) -> None:
        """Bring every fed link up to now, before the tap or a node's
        ``rx_discarded`` is read (a link's ``stats`` catches itself up)."""
        now, firing = self.sim._now, self.sim._firing
        for link in self._fed:
            link._catch_up(now, firing)

    def _rest(self, drained: bool) -> float:
        """The simulator's catch-up (``Simulator._offheap``): every fed
        link up to now, or to its last packet once the heap drained;
        under a tracer each is unfed instead, so the traced run sees
        every packet at an entry of its own."""
        sim = self.sim
        if sim._tracing:
            for link in list(self._fed):
                link._unfeed()
            return sim._now
        now, firing = (float("inf"), 0) if drained else (sim._now,
                                                         sim._firing)
        return max([link._catch_up(now, firing) for link in self._fed],
                   default=sim._now)

    def _ports_change(self, node_id: str, port: int) -> None:
        """A port of ``node_id`` is bound or unbound: the links fed into
        it catch up, and one whose packets go to that port is unfed."""
        sim = self.sim
        for link in list(self._fed):
            if link.dst == node_id:
                if port == link._feeder.port:
                    link._unfeed()
                else:
                    link._catch_up(sim._now, sim._firing)

    # -- data plane ----------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Inject a packet at its source node. Returns admission result."""
        src = pkt.src
        dst = pkt.dst
        if src not in self.nodes:
            raise KeyError(f"unknown source node {src!r}")
        if dst not in self.nodes:
            raise KeyError(f"unknown destination node {dst!r}")
        pkt.created_at = self.sim._now
        if src == dst:
            # Loopback: deliver immediately.
            self.nodes[dst].deliver(pkt)
            return True
        out = self._out_links[src]
        if dst not in out:
            self._route(src, dst)
        return out[dst].enqueue(pkt)

    def _on_link_drop(self, pkt: Packet, kind: str) -> None:
        self.tap.count_by_flow[pkt.protocol][pkt.flow_id] += 0
        if pkt.frame_seq >= 0 and pkt.session:
            hit = self.frames_hit.setdefault(pkt.session, {})
            hit[pkt.flow_id, pkt.frame_seq] = getattr(
                pkt.payload, "timestamp", -1)
