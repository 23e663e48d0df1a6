"""Point-to-point links: finite rate, propagation delay, drop-tail queue.

Queueing delay and overflow loss — the "network's load conditions and
probabilistic behavior" the paper's buffering layer exists to absorb —
emerge here rather than being injected as closed-form noise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.des import Simulator
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.impairments import GilbertElliottLoss
    from repro.net.traffic import _TrafficBase

__all__ = ["Link", "LinkStats"]


@dataclass(slots=True)
class LinkStats:
    """Counters a link maintains for experiment reporting."""

    tx_packets: int = 0
    tx_bytes: int = 0
    queue_drops: int = 0
    loss_drops: int = 0
    #: packets discarded because the link was administratively down
    #: (fault injection): offered while it was down, or reaching the far
    #: end while it was down (one sent before a cut that arrives after
    #: the link came back up is delivered)
    fault_drops: int = 0
    busy_time: float = 0.0


class Link:
    """Unidirectional link ``src -> dst``.

    A FIFO transmitter knows a packet's departure when it accepts it:
    ``max(now, previous departure) + size * 8 / rate_bps``. So
    :meth:`enqueue` appends a ``(departure, ser, size_bytes)`` record
    (or drops the packet when one is in service and ``queue_packets``
    are already waiting) and schedules the one call per packet-hop,
    ``_propagated`` at ``departure + delay_s``, which hands a packet for
    ``dst`` to ``on_arrival`` (that node's delivery, on a network) and
    offers any other to the next link in the far node's table itself.
    Transmissions are counted lazily: a record whose
    departure is before ``now`` is settled into :attr:`stats` in FIFO
    order, when the next packet is offered or someone reads the
    counters; one departing exactly ``now`` is still in service.
    Random loss (e.g. a noisy last-mile) is modelled by an optional
    Gilbert–Elliott process applied after propagation.

    A link plans each packet across the next link it alone feeds. When
    this link draws no loss, no detail tracer watches (control-tier
    emits on this path fire as they did), and the far node's table
    (routed when this link accepts the packet, if it is empty) routes
    the packet to a next link that is up and that this link claimed (the
    first planner claims a link nothing fed before: see :meth:`_claim`),
    :meth:`enqueue` admits the packet there now, as that link's
    ``enqueue`` would at the arrival, and pushes one entry: the final
    arrival, or the queue drop at the arrival. Its seq is taken now, so
    an entry pushed for the same final instant before the packet reaches
    ``dst`` fires after it, where a run that does not plan fires it
    first; every other tie keeps its order. A plan is taken back exactly
    (:func:`take_back`) when either link goes down, when the routes
    change, and when anything is enqueued onto the next link, which ends
    the claim: one pass over the heap for every link each of those
    touches, however many links an uplink ever planned across.

    A traffic source (:mod:`repro.net.traffic`) may feed its uplink and
    the router's link to its target (``_feeder``): it keeps no entry per
    emission, and whoever touches either link first has it produce the
    emissions before now (admitted to the uplink as :meth:`enqueue`
    would have at each instant, and appended to the router link's feed
    as ``(arrival here, seq, packet)`` under a seq taken then). A fed
    link catches up (:meth:`_catch_up`) before anything else touches it:
    an :meth:`enqueue`, a loss draw in :meth:`_propagated`, a read of
    :attr:`stats`, :meth:`set_up`, a port bound or unbound at ``dst``,
    the network's readers of the tap and of ``rx_discarded``
    (``Network.catch_up``) and the return from ``Simulator.run``. It
    then has the source produce what is due, admits the fed packets
    that arrived before, as ``enqueue`` would have, and delivers those
    that reached ``dst`` before, as ``_propagated`` would have, to a
    port nothing is bound to. Either link going down, a port bound
    there, a tracer, a second source or a route change turns the pending
    packets back into the entries a source that does not feed leaves,
    under their seqs, and the source ticks again (:meth:`_unfeed`).
    """

    def __init__(
        self,
        sim: Simulator,
        src: str,
        dst: str,
        rate_bps: float,
        delay_s: float,
        queue_packets: int = 100,
        loss_model: "GilbertElliottLoss | None" = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive, got {rate_bps}")
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = float(rate_bps)
        self.delay_s = float(delay_s)
        if queue_packets <= 0:
            raise ValueError(
                f"queue_packets must be positive, got {queue_packets}")
        #: packets waiting behind the one being serialised
        self.queue_packets = queue_packets
        #: ``(departure, ser, size_bytes)`` of every accepted packet not
        #: yet settled: the one in service, then those waiting
        self._departures: deque[tuple[float, float, int]] = deque()
        # The transmitter computes a plain link's delay inline, per
        # packet; a subclass that overrides serialization_delay (ATM
        # cells) is asked instead.
        self._ser_overridden = (type(self).serialization_delay
                                is not Link.serialization_delay)
        self.loss_model = loss_model
        self._packet_loss = loss_model      # an ATM link draws per cell
        # a planned packet's arrival at the far node must be known when
        # it is accepted: no loss draw and no cell count on this hop
        self._plans_through = (loss_model is None and type(self)._propagated
                               is Link._propagated)
        #: administrative state; a downed link drops what is offered to it
        #: and what reaches its far end while it is down: a packet that
        #: was propagating when it went down is delivered if the link is
        #: up again by its arrival
        self.up = True
        self._stats = LinkStats()
        self.on_arrival: Callable[[Packet], None] | None = None
        self.on_drop: Callable[[Packet, str], None] | None = None
        #: the far node's next-link table and its router (set by a network)
        self._next: dict[str, Link] = {}
        self._route: Callable[[str, str], object] | None = None
        #: the link that plans across this link; False once anything
        #: else fed it
        self._owner: Link | bool | None = None
        #: the traffic source that feeds this link, its uplink or the
        #: router's link to its target (None: none does; False: two
        #: tried, and none may). On the router's link its packets wait
        #: in ``_feed`` as ``(arrival at src, seq, packet)`` until
        #: admitted, then in ``_far`` as ``(arrival at dst, seq,
        #: packet)`` until delivered, in :meth:`_catch_up` (both made
        #: when a source first feeds the link: most links are never fed)
        self._feeder: _TrafficBase | bool | None = None
        self._feed: deque[tuple[float, int, Packet]] | None = None
        self._far: deque[tuple[float, int, Packet]] | None = None

    def _settle(self) -> LinkStats:
        """Count the transmissions that ended before now and return the
        counters, so they read as if each were an event; one departing
        exactly now is still in service."""
        if self._feeder:
            self._catch_up(self.sim._now, self.sim._firing)
        departures, now = self._departures, self.sim._now
        stats = self._stats
        while departures and departures[0][0] < now:
            _, ser, size = departures.popleft()
            stats.busy_time += ser
            stats.tx_packets += 1
            stats.tx_bytes += size
        return stats

    #: the counters as of now (the getter is :meth:`_settle` itself, so
    #: a read costs no frame more than the settling)
    stats = property(_settle)

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    def serialization_delay(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.rate_bps

    # -- fault injection ---------------------------------------------------
    def set_up(self, up: bool) -> None:
        """Administratively raise or cut the link (fault injection)."""
        if up == self.up:
            return
        if self._feeder:
            self._unfeed()
        if not up:
            # a packet planned past now meets the links as they are
            # then: the plans across this link, and its own across the
            # next links
            take_back([self, *(nxt for nxt in dict.fromkeys(
                self._next.values()) if nxt._owner is self)])
        self.up = up
        if self.sim._tracing:
            self.sim._tracer.emit(self.sim.now, "fault.link", self.name,
                                  state="up" if up else "down")

    def _drop_down(self, pkt: Packet) -> None:
        self._stats.fault_drops += 1
        if self.sim._tracing:
            self.sim._tracer.emit(self.sim.now, "link.drop", self.name,
                                  reason="down", seq=pkt.seq,
                                  flow=pkt.flow_id, session=pkt.session,
                                  frame=pkt.frame_seq)
        if self.on_drop is not None:
            self.on_drop(pkt, "drop-down")

    def _drop_queue(self, pkt: Packet, arrival: float | None = None) -> None:
        self._stats.queue_drops += 1
        sim = self.sim
        if sim._tracing:
            sim._tracer.emit(sim._now, "link.drop", self.name,
                             reason="queue", seq=pkt.seq,
                             flow=pkt.flow_id, session=pkt.session,
                             frame=pkt.frame_seq)
        if self.on_drop is not None:
            self.on_drop(pkt, "drop-queue")

    # -- plans across this link --------------------------------------------
    def _claim(self, link: "Link") -> bool:
        """Let ``link``, the first to ask, plan across this unowned link
        unless something was enqueued onto it before: every enqueue
        leaves a record or a count."""
        stats = self._stats
        if (self._departures or stats.tx_packets or stats.queue_drops
                or stats.fault_drops):
            self._owner = False
            return False
        self._owner = link
        return True

    def _disown(self) -> None:
        """A second sender: take back what is planned across this link,
        and let nothing plan across it again."""
        take_back([self])
        self._owner = False

    # -- packets a traffic source feeds -------------------------------------
    def _catch_up(self, now: float, firing: int) -> float:
        """Do what the entries the fed packets replaced would have done
        before ``(now, firing)``; returns the latest instant done.

        The source first produces its steps before now, unless its next
        step is not before ``now`` (compared here, so a catch-up with
        nothing due costs no call). A fed packet is admitted at its
        arrival, in ``(time, seq)`` order, as :meth:`enqueue` would then:
        settle, drop-tail, append. An admitted one reaches ``dst``, in
        FIFO order and before any later packet's loss draw here, as
        :meth:`_propagated` would: the loss draw, then the far node's tap
        and discard count (its port has no handler: a bound one takes the
        feed back), in one sum for the packets delivered. Its arrival
        there is ordered by the seq it took when it was produced: a read
        at exactly that instant sees the delivery if its entry was pushed
        after the production, where a run that does not feed orders the
        arrival by the seq its entry here took.
        """
        feeder: _TrafficBase = self._feeder
        fed: Link = feeder._links[1]
        if fed is not self:
            # the source's uplink: its router link catches up for both
            return fed._catch_up(now, firing)
        last = 0.0
        feed, far = self._feed, self._far
        more = True
        while more:
            # a production stops after a bounded number of packets, so
            # a catch-up after a long quiet spell admits and delivers as
            # it goes instead of holding the whole spell
            more = feeder._at < now and feeder._produce()
            if feed:
                departures = self._departures
                stats = self._stats
                limit, rate = self.queue_packets, self.rate_bps
                delay = self.delay_s
                while feed:
                    t, seq, pkt = feed[0]
                    if t > now or t == now and seq >= firing:
                        break
                    feed.popleft()
                    last = t
                    while departures and departures[0][0] < t:
                        _, ser, size = departures.popleft()
                        stats.busy_time += ser
                        stats.tx_packets += 1
                        stats.tx_bytes += size
                    if len(departures) > limit:
                        self._drop_queue(pkt)
                        continue
                    size = pkt.size_bytes
                    ser = size * 8.0 / rate
                    departure = (departures[-1][0] if departures
                                 else t) + ser
                    departures.append((departure, ser, size))
                    far.append((departure + delay, seq, pkt))
            if far:
                loss = self._packet_loss
                delivered = 0
                while far:
                    arrival, seq, pkt = far[0]
                    if arrival > now or arrival == now and seq >= firing:
                        break
                    far.popleft()
                    last = arrival
                    if loss is not None and loss.is_lost():
                        self._stats.loss_drops += 1
                        self.on_drop(pkt, "drop-loss")
                    else:
                        delivered += 1
                if delivered:
                    # one source's packets: one flow, one size, one port
                    node = feeder.network.nodes[self.dst]
                    node._tap_flows[pkt.protocol][pkt.flow_id] += delivered
                    node._tap_bytes[pkt.protocol] += (delivered
                                                      * pkt.size_bytes)
                    node.rx_discarded += delivered
        return last

    def _unfeed(self) -> None:
        """End the feed of this link's source, on its uplink and the
        router's link both: turn the packets fed there and not yet
        delivered back into the heap entries a source that does not feed
        leaves, under their seqs: one not yet admitted into the uplink's
        ``_propagated`` at its arrival at the router, which finds the
        uplink and the routes as they are then, and one admitted into the
        router link's ``_propagated`` at its arrival at the target. The
        source ticks from its next step, and asks again there."""
        sim = self.sim
        source: _TrafficBase = self._feeder
        uplink: Link
        fed: Link
        uplink, fed = source._links
        fed._catch_up(sim._now, sim._firing)
        del source.network._fed[fed]
        uplink._feeder = fed._feeder = source._links = None
        propagated = uplink._propagated
        sim.restore([(t, seq, propagated, (pkt, None))
                     for t, seq, pkt in fed._feed]
                    + [(arrival, seq, fed._propagated, (pkt, None))
                       for arrival, seq, pkt in fed._far])
        fed._feed.clear()
        fed._far.clear()
        source._tick_on()

    # -- ingress ---------------------------------------------------------
    def enqueue(self, pkt: Packet) -> bool:
        """Offer a packet; returns False (and counts a drop) if full."""
        if not self.up:
            self._drop_down(pkt)
            return False
        if self._owner:
            # a link plans across this one
            self._disown()
        sim = self.sim
        now = sim._now
        if self._feeder:
            self._catch_up(now, sim._firing)
        departures = self._departures
        stats = self._stats
        # `_settle`, here and for the next link below, and the admission
        # after it (also in `_TrafficBase._produce` and in `_catch_up`,
        # for fed packets) are written out:
        # these run per packet, and a shared method would cost a call per
        # packet, which tests/test_datapath_budget.py counts
        while departures and departures[0][0] < now:
            _, ser, size = departures.popleft()
            stats.busy_time += ser
            stats.tx_packets += 1
            stats.tx_bytes += size
        if len(departures) > self.queue_packets:
            self._drop_queue(pkt)
            return False
        size = pkt.size_bytes
        ser = (self.serialization_delay(size) if self._ser_overridden
               else size * 8.0 / self.rate_bps)
        departure = (departures[-1][0] if departures else now) + ser
        departures.append((departure, ser, size))
        when = departure + self.delay_s
        fn = self._propagated
        arrival = None
        if (pkt.dst != self.dst and self._plans_through
                and not sim._tracing_detail):
            nxt = self._next.get(pkt.dst)
            if nxt is None:
                # route the far node now, not when the packet gets there:
                # a path then plans from its first packet
                self._route(self.dst, pkt.dst)
                nxt = self._next[pkt.dst]
            if nxt.up and (nxt._owner is self
                           or nxt._owner is None and nxt._claim(self)):
                # the next link's `enqueue` at the arrival, made now:
                # settle, drop-tail over the records still there at the
                # arrival, append
                arrival = when
                departures = nxt._departures
                stats = nxt._stats
                while departures and departures[0][0] < now:
                    _, ser, size = departures.popleft()
                    stats.busy_time += ser
                    stats.tx_packets += 1
                    stats.tx_bytes += size
                limit = nxt.queue_packets
                if len(departures) <= limit or sum(
                        1 for d in departures if d[0] >= arrival) <= limit:
                    size = pkt.size_bytes
                    ser = (nxt.serialization_delay(size)
                           if nxt._ser_overridden
                           else size * 8.0 / nxt.rate_bps)
                    tail = departures[-1][0] if departures else arrival
                    departure = (tail if tail > arrival else arrival) + ser
                    departures.append((departure, ser, size))
                    when = departure + nxt.delay_s
                    fn = nxt._propagated
                else:
                    fn = nxt._drop_queue
        # a planned entry carries the arrival its plan assumed
        sim.call_at(when, fn, pkt, arrival)
        if sim._tracing_detail:
            sim._tracer.emit(now, "link.enqueue", self.name,
                             depth=len(departures) - 1,
                             flow=pkt.flow_id, seq=pkt.seq,
                             session=pkt.session, frame=pkt.frame_seq)
        return True

    def _propagated(self, pkt: Packet, arrival: float | None = None) -> None:
        """The packet reaches ``dst``. ``arrival`` is set when the link
        before planned the packet across this one: its arrival at
        ``src``, which only a withdrawal reads (off the heap)."""
        if not self.up:
            self._drop_down(pkt)
            return
        loss = self._packet_loss
        if loss is not None:
            if self._feeder:
                # the fed packets that arrived before draw first
                self._catch_up(self.sim._now, self.sim._firing)
            if (loss.is_lost(flow=pkt.flow_id, seq=pkt.seq,
                             session=pkt.session, frame=pkt.frame_seq)
                    if self.sim._tracing_detail
                    else loss.is_lost()):
                self._stats.loss_drops += 1
                if self.sim._tracing:
                    self.sim._tracer.emit(self.sim.now, "link.drop",
                                          self.name, reason="loss",
                                          seq=pkt.seq, flow=pkt.flow_id,
                                          session=pkt.session,
                                          frame=pkt.frame_seq)
                if self.on_drop is not None:
                    self.on_drop(pkt, "drop-loss")
                return
        dst = pkt.dst
        if dst == self.dst:
            self.on_arrival(pkt)
            return
        out = self._next
        if dst not in out:
            self._route(self.dst, dst)
        out[dst].enqueue(pkt)


def take_back(links: list[Link]) -> None:
    """Take back what is planned across ``links`` past now, in one pass.

    A plan of the link that owns one is the heap entry carrying the
    packet's arrival there: if that is after now, or at now with a seq
    above the firing entry's, the packet's record leaves the owned link
    (the newest are the plans') and the entry becomes, under its seq,
    the owner's ``_propagated`` at the arrival, as in a run that never
    planned.
    """
    upstream: dict[Link, Callable[[Packet], None]] = {}
    records: dict[Link, int] = {}
    for link in links:
        owner = link._owner
        if owner:
            upstream[link] = owner._propagated
            records[link] = 0
    if not records:
        return
    sim: Simulator = links[0].sim
    now, firing = sim._now, sim._firing

    def back(_time, seq, fn, args):
        if len(args) == 2 and args[1] is not None:
            planned = getattr(fn, "__self__", None)
            if isinstance(planned, Link) and planned in records:
                pkt, arrival = args
                if arrival > now or arrival == now and seq > firing:
                    records[planned] += fn.__func__ is not Link._drop_queue
                    return arrival, upstream[planned], (pkt,)
        return None

    sim.rewrite(back)
    for link in links:
        for _ in range(records.get(link, 0)):
            link._departures.pop()
