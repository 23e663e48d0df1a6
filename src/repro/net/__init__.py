"""Discrete-event broadband network substrate.

Store-and-forward simulation of the 1996 testbed the paper assumed:
nodes joined by finite-rate links with drop-tail queues, shortest-path
routing on propagation delay, cross-traffic sources that create
congestion epochs, and optional Gilbert–Elliott random loss.
On top sit two endpoint transports matching the paper's protocol
stack (Figure 5): an unreliable datagram service (UDP-like, used by
RTP) and a reliable in-order byte service (TCP-like, used for
scenarios, text and images) built as a go-back-N ARQ.
"""

from repro.net.packet import Packet, PacketTap
from repro.net.link import Link, LinkStats
from repro.net.ports import PortAllocator, PortExhaustedError
from repro.net.topology import Network, Node, NoRouteError
from repro.net.service_topology import (
    AccessLinkSpec,
    RegionSpec,
    ServiceTopology,
    cdn_stack,
)
from repro.net.impairments import GilbertElliottLoss
from repro.net.channel import DatagramSocket, ReliableSender, ReliableReceiver
from repro.net.traffic import OnOffTrafficSource, PoissonTrafficSource

__all__ = [
    "AccessLinkSpec",
    "DatagramSocket",
    "GilbertElliottLoss",
    "Link",
    "LinkStats",
    "Network",
    "NoRouteError",
    "Node",
    "OnOffTrafficSource",
    "Packet",
    "PacketTap",
    "PoissonTrafficSource",
    "PortAllocator",
    "PortExhaustedError",
    "RegionSpec",
    "ReliableReceiver",
    "ReliableSender",
    "ServiceTopology",
    "cdn_stack",
]
