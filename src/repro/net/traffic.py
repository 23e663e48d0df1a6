"""Cross-traffic sources used to load the network.

Congestion in the experiments is created by competing traffic on
shared links, reproducing "times of network congestion" in which the
paper's recovery mechanisms must act:

* :class:`PoissonTrafficSource` — memoryless packet arrivals at a
  configurable mean rate (classic background load).
* :class:`OnOffTrafficSource` — exponential ON/OFF bursts sending at
  peak rate during ON periods; superpositions of these produce the
  bursty, correlated load broadband links actually see.

Most packets of an impaired run are background, so a source is priced
like the data path it loads: a chain of ``call_at`` callbacks (no
process, no event object per packet), exponential lengths read from its
stream in blocks (:func:`~repro.des.rng.block_draws`: the stream must
be the source's alone), each packet built here. A source only sends: it
binds no port, and its packets are discarded at the target's port 9.

A source reaches its target in one of two ways.

*Fed.* A source owns the links out of its host when no other source
sits there (the engine gives each source a host of its own), and
nothing else may send on an owned link. When its uplink is up, draws
no loss and ends at a router whose link to the target is a plain link
that is up, that no other source fed and whose target leaves port 9
unbound (every engine run), the source feeds that link
(``Link._feed``). The uplink's departures are a pure function of the
source's draws, so the source plans: it admits a batch of packets to
the uplink ahead of their emission instants, exactly as
:meth:`~repro.net.link.Link.enqueue` would at each instant, and appends
each to the router's link under the seq its entry at the router would
have taken, with no entry; the link admits it and discards it at the
target in its catch-ups, before anything else reads or sends on it. A
batch admits ``_BATCH`` packets, more if none of them reaches the
router by the next emission, and its resume is an entry at the arrival
of the latest one that does, so no heap entry marks an emission and no
emission is admitted after its instant (nor seen before it: a planned
record departs after now, so reading the link settles none, and
``packets_sent`` leaves out what is planned past now). A batch also
ends before a packet the uplink's queue would drop, at a burst's end
or at ``stop_at``; ON/OFF bursts keep their start and end entries.

*Sent at its instant.* Otherwise the source keeps an entry at each
emission instant and sends through ``enqueue``, as any sender does:
under a tracer (its rows stay in time order; attach one before the
run), on an uplink another source shares, while the uplink is down,
when the uplink draws loss or ends at the target, and when the
router's link to the target cannot be fed (a bound port, a second
source, the link down or the route elsewhere). The run then fires,
entry for entry, what any sender of the same packets fires.

The source keeps its packets planned and not yet emitted across
resumes, so an uplink going down withdraws exactly those planned past
that instant: each is offered to the uplink at its own instant
instead, and is in no plan after that; planning resumes once the last
of them was offered. Before that, and whenever the routes change, a
port is bound at the target, the fed link goes down, a tracer is
attached or a second source arrives, the fed link is unfed
(``Link._unfeed``): each pending packet is the entry it replaced again,
under its seq, the uplink's ``_propagated`` at the router, which finds
the uplink and the routes as they are when it arrives, or the fed
link's ``_propagated`` at the target.

Two orders differ from a source that does not feed, both a fed
packet's. Its entry at the router takes its seq when its batch is
planned, not at its emission instant: an entry at the router pushed in
between, for exactly that packet's arrival, fires after the packet
instead of before it. A batch plans ``_BATCH`` packets or more ahead,
so such an entry may be pushed many emissions after the plan, and
after its resume
(``test_a_fed_packet_enters_the_router_link_in_the_plans_order`` in
``tests/test_net_traffic_impairments.py`` holds the order). Its arrival
at the target is ordered by the same seq, taken before the one its
entry there would have taken: a read at exactly that arrival, from an
entry pushed in between, sees it discarded where a source that does
not feed shows it to a later read
(``test_a_read_at_exactly_a_fed_packets_far_arrival_sees_it_delivered``).
A source that sends at its instants changes no order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import repeat
from operator import attrgetter
from typing import Callable

import numpy as np

from repro.des import Simulator
from repro.des.rng import block_draws
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.topology import Network

__all__ = ["PoissonTrafficSource", "OnOffTrafficSource"]

_INF = float("inf")
#: packets a plan admits before it may stop at the latest of them whose
#: arrival comes at or before the next emission
_BATCH = 16
#: a packet's emission instant (a C callable, for bisecting a plan)
_EMITTED = attrgetter("created_at")


class _TrafficBase:
    #: the time from one emission to the next, a C callable set by the
    #: subclass (drawn for Poisson, fixed inside an ON/OFF burst), so
    #: the planning loop enters no Python frame for it
    _next_gap: Callable[[], float]
    #: the target's port the packets go to: while nothing binds it,
    #: they are discarded there and the source may feed (:meth:`_feeds`)
    port = 9

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        rng: np.random.Generator,
        packet_bytes: int = 1000,
        start_at: float = 0.0,
        stop_at: float = float("inf"),
    ) -> None:
        if src == dst:
            raise ValueError(f"traffic source {src!r} targets itself")
        self.network = network
        self.sim: Simulator = network.sim
        self.src = src
        self.dst = dst
        self.packet_bytes = packet_bytes
        self.flow_id = f"xtraffic:{src}->{dst}"
        self.start_at = start_at
        self.stop_at = stop_at
        #: the last seq: packets emitted so far and those planned past
        #: now; a withdrawn packet counts again at its emission instant
        self._sent = 0
        #: the packets of the latest plan, in seq order; those whose
        #: emission instant is after now are not sent yet
        self._planned: list[Packet] = []
        #: triggers when the source has stopped for good; its heap entry
        #: is one of the events every pinned run counts
        self.done = self.sim.event()
        #: unit-mean exponential lengths, scaled where they are used
        self._draw = block_draws(rng.standard_exponential)
        #: the node's next-link table, which the network edits in place
        self._out = network._out_links[src]
        for link in network._adj[src].values():
            if link._owner is None:
                link._owner = self
            else:
                link._disown()
        self.sim.call_later(0.0, self._start)

    @property
    def packets_sent(self) -> int:
        """Packets emitted so far; one planned for a later instant is
        not sent yet."""
        now = self.sim._now
        return self._sent - sum(1 for pkt in self._planned
                                if pkt.created_at > now)

    def _start(self) -> None:
        if self.start_at > 0:
            self.sim.call_later(self.start_at, self._cycle)
        else:
            self._cycle()

    def _uplink(self) -> Link:
        """The first link toward the target, routed on first use."""
        dst = self.dst
        out = self._out
        if dst not in out:
            self.network._route(self.src, dst)
        return out[dst]

    def _emit(self) -> None:
        self._sent += 1
        link = self._out.get(self.dst) or self._uplink()
        link.enqueue(Packet(
            self.src, self.dst, self.packet_bytes, "UDP", self.flow_id,
            self.port, seq=self._sent, created_at=self.sim._now))

    def _plan(self, t: float, end: float) -> None:
        """Go on from the tick at ``t`` (not before now), inside a burst
        ending at ``end``: when this source feeds the router's link to
        its target, admit a batch of emissions to the uplink, feed them
        all to that link and leave the one entry that resumes the
        source; otherwise leave the tick at ``t``."""
        # `_uplink` only when the route is missing, as in `_emit`: no
        # frame per plan
        link = self._out.get(self.dst) or self._uplink()
        sim = self.sim
        dst = self.dst
        nxt = None
        if (link._owner is self and link.up and not sim._tracing
                and link._plans_through and dst != link.dst):
            # the far node's next link, where the uplink's `_propagated`
            # would offer each packet at its arrival
            nxt = link._next.get(dst)
            if nxt is None:
                link._route(link.dst, dst)
                nxt = link._next[dst]
            if not (nxt._feeder is self or self._feeds(nxt)):
                nxt = None
        resume_at = None
        if nxt is not None:
            # once a batch, so that a fed link nothing else touches does
            # not hold every packet fed to it until the run ends
            nxt._catch_up(sim._now, sim._firing)
            planned = self._planned
            # what is emitted by now leaves the plan; the rest stays
            del planned[:bisect_right(planned, sim._now, key=_EMITTED)]
            # settling what left before now bounds the queue
            link._settle()
            departures = link._departures
            limit = link.queue_packets
            src, flow_id, port = self.src, self.flow_id, self.port
            size = self.packet_bytes
            # a link that plans through has no cell layer
            ser = size * 8.0 / link.rate_bps
            delay = link.delay_s
            next_gap = self._next_gap
            until = min(end, self.stop_at)
            tail = departures[-1][0] if departures else t
            sent = self._sent
            full = sent + _BATCH
            arrivals: list[float] = []
            packets: list[Packet] = []
            while t < until:
                # `enqueue`'s admission at instant t (see the comment
                # there); none of the records is settled early, so reads
                # of the link see no plan
                if len(departures) > limit and sum(
                        1 for d in departures if d[0] >= t) > limit:
                    break  # a drop: it happens at its instant
                tail = (tail if tail > t else t) + ser  # the departure
                departures.append((tail, ser, size))
                sent += 1
                # positional: (..., payload, seq, session, frame_seq,
                # created_at)
                packets.append(Packet(src, dst, size, "UDP", flow_id, port,
                                      None, sent, "", -1, t))
                arrivals.append(tail + delay)
                t = t + next_gap()
                if sent >= full and arrivals[0] <= t:
                    # the latest arrival at or before t resumes planning
                    resume_at = arrivals[bisect_right(arrivals, t) - 1]
                    break
            self._sent = sent
            planned += packets
            # each takes the seq its entry at the router would have
            seq = sim._seq
            sim._seq += len(packets)
            nxt._feed += zip(arrivals, range(seq + 1, sim._seq + 1), packets)
        if resume_at is None:
            sim.call_at(t, self._tick, end)
        else:
            sim.call_at(resume_at, self._plan, t, end)

    def _feeds(self, nxt: Link) -> bool:
        """Whether this source may feed ``nxt``, the router's next link,
        which it does not feed yet; if so, it feeds it from now on.

        It may when that link ends at the target, is a plain up link,
        no other source fed it and the target's port is unbound (a
        handler must see each packet at an entry of its own). The link
        is disowned first: a packet another link planned across it
        would be admitted ahead of the fed packets that reach it
        before. A second source takes the first one's feed back, and
        neither feeds the link again.
        """
        feeder = nxt._feeder
        if feeder:
            nxt._unfeed()
            nxt._feeder = False
            return False
        network = self.network
        if (feeder is False or nxt.dst != self.dst or type(nxt) is not Link
                or not nxt.up or self.port in network.nodes[self.dst]._ports):
            return False
        nxt._disown()
        if nxt._feed is None:
            nxt._feed, nxt._far = deque(), deque()
        nxt._feeder = self
        network._fed[nxt] = None
        if network._rest not in self.sim._offheap:
            self.sim._offheap.append(network._rest)
        return True

    def _withdraw(self) -> None:
        """Take back what is planned past now: the uplink is going down,
        or another sender now shares it.

        The link this source feeds is unfed first, so each packet it
        holds is the uplink's ``_propagated`` entry at the router again,
        which finds the uplink as it is then. A packet planned past now
        leaves the uplink's records, and its entry moves, under its seq,
        to its emission instant, where it is offered to the uplink as
        any sender's would be (:meth:`_replay`); it is in no plan after
        that. The resume moves to the last of them, so planning goes on
        only once every withdrawn packet was offered, and the run fires
        as many entries as one that never planned.
        """
        uplink = self._uplink()
        nxt = uplink._next.get(self.dst)
        if nxt is not None and nxt._feeder is self:
            nxt._unfeed()
        planned = self._planned
        emitted = bisect_right(planned, self.sim._now, key=_EMITTED)
        later = planned[emitted:]
        if not later:
            return
        del planned[emitted:]
        self._sent -= len(later)
        # their records are the uplink's newest, none of them settled
        departures = uplink._departures
        for _ in later:
            departures.pop()
        pending = set(later)
        last = later[-1].created_at
        plan, replay = self._plan, self._replay
        propagated = uplink._propagated

        def back(_time, _seq, fn, args):
            if fn == plan:
                return last, plan, args
            if fn == propagated and args[0] in pending:
                return args[0].created_at, replay, args[:1]
            return None

        self.sim.rewrite(back)

    def _replay(self, pkt: Packet) -> None:
        """A withdrawn packet's emission instant: offer it as any sender
        would."""
        self._sent += 1
        self._uplink().enqueue(pkt)


class PoissonTrafficSource(_TrafficBase):
    """Poisson packet arrivals at ``rate_bps`` mean load."""

    def __init__(self, network, src, dst, rng, rate_bps: float, **kw) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        super().__init__(network, src, dst, rng, **kw)
        mean = self.packet_bytes * 8.0 / rate_bps
        self._next_gap = map(mean.__mul__, iter(self._draw, None)).__next__

    def _cycle(self) -> None:
        """Start: draw the first arrival."""
        now = self.sim._now
        if now < self.stop_at:
            self._plan(now + self._next_gap(), _INF)
        else:
            self.done.succeed()

    def _tick(self, end: float) -> None:
        """Send the arrival that fell due, if it is before ``stop_at``,
        and draw the next."""
        now = self.sim._now
        if now < self.stop_at:
            self._emit()
            self._plan(now + self._next_gap(), end)
        else:
            self.done.succeed()


class OnOffTrafficSource(_TrafficBase):
    """Exponential ON/OFF source bursting at ``peak_rate_bps``.

    Mean load is ``peak_rate_bps * on_mean / (on_mean + off_mean)``.
    """

    def __init__(
        self,
        network,
        src,
        dst,
        rng,
        peak_rate_bps: float,
        on_mean_s: float = 1.0,
        off_mean_s: float = 1.0,
        **kw,
    ) -> None:
        if peak_rate_bps <= 0:
            raise ValueError("peak_rate_bps must be positive")
        if on_mean_s <= 0 or off_mean_s <= 0:
            raise ValueError("on/off means must be positive")
        self.on_mean_s = on_mean_s
        self.off_mean_s = off_mean_s
        super().__init__(network, src, dst, rng, **kw)
        gap = self.packet_bytes * 8.0 / peak_rate_bps
        self._next_gap = repeat(gap).__next__

    def _cycle(self) -> None:
        now = self.sim._now
        if now < self.stop_at:
            self._tick(now + self.on_mean_s * self._draw())
        else:
            self.done.succeed()

    def _tick(self, end: float) -> None:
        """Send at peak rate until ``end`` or ``stop_at``, whichever is
        first; an OFF period follows either way."""
        sim = self.sim
        now = sim._now
        if now < end and now < self.stop_at:
            self._emit()
            self._plan(now + self._next_gap(), end)
        else:
            sim.call_later(self.off_mean_s * self._draw(), self._cycle)
