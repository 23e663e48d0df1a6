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

A source owns the links out of its host when no other source sits there
(the engine gives each source a host of its own), and nothing else may
send on an owned link. The uplink's departures are then a pure function
of the source's draws, so the source plans: it admits packets to the
uplink ahead of their emission instants, exactly as
:meth:`~repro.net.link.Link.enqueue` would at each instant. At the far
end a packet enters the router's next link: the uplink's
``_propagated`` would do only that (the uplink draws no loss), so the
packet is built with ``hops=1`` and the next link is looked up once per
plan (routing the router's table if it is empty). When that link ends
at the target and the target's port is unbound, the source feeds it
(``Link._feed``): each packet takes the seq its entry at the router
would have and no entry, and the link admits it and discards it at the
target in its catch-ups, before anything else reads or sends on it. A
link another source feeds too, a bound port, a downed link or another
path makes the packet an entry at the router that offers it to that
link's ``enqueue``. A plan admits ``_BATCH`` packets, more if none of them
reaches the router by the next emission, and its resume is the arrival
entry of the latest one that does, so no heap entry marks an emission
and no emission is admitted after its instant (nor seen before it: a
planned record departs after now, so reading the link settles none, and
``packets_sent`` leaves out what is planned past now). Where a plan
cannot be exact the source keeps an entry at each emission instant and
sends through ``enqueue``, as a sender on a shared link must: under a
tracer (its rows stay in time order; attach one before the run), on a
link another source shares, while the uplink is down, and for a packet
the uplink's queue would drop. ON/OFF bursts keep their start and end
entries, and a batch ends at a burst's end or ``stop_at``.

The source keeps its packets planned and not yet emitted across
resumes, so an uplink going down withdraws exactly those planned past
that instant; each is offered to the uplink at its own instant instead,
and is in no plan until then. A planned packet in flight then, and
every planned packet when the routes change, is handed back to the
uplink's ``_propagated`` under its seq (``hops`` reset to 0), which
checks the uplink and routes the packet as things are when it arrives;
the link this source feeds gives its packets back as entries first.

One order differs from a source that does not plan, and one more from
one that does not feed. A packet's entry
at the router takes its seq when its batch is planned, not at its
emission instant: an entry at the router pushed in between, for exactly
that packet's arrival, fires after the packet instead of before it. A
batch plans ``_BATCH`` packets or more ahead, so such an entry may be
pushed many emissions after the plan, and after its resume
(``test_an_entry_at_the_router_for_a_batched_arrival_fires_in_the_plans_order``
in ``tests/test_net_traffic_impairments.py`` holds the order). A fed
packet keeps that order at the router, but its arrival at the target
is ordered by the same seq, taken before the one its entry there would
have taken: a read at exactly that arrival, from an entry pushed in
between, sees it discarded where a source that does not feed shows it
to a later read
(``test_a_read_at_exactly_a_fed_packets_far_arrival_sees_it_delivered``).
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
    #: the target's port the packets go to: nothing binds it, so they
    #: are discarded there
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
        #: the router's next link, which planned packets enter through
        #: its ``enqueue`` or its feed (None while none can be pending)
        self._nxt: Link | None = None
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

    def _plan(self, t: float, end: float, hand: Callable | None = None,
              pkt: Packet | None = None) -> None:
        """Go on from the tick at ``t`` (not before now), inside a burst
        ending at ``end``: admit a batch of emissions, then leave the
        one entry that resumes the source.

        ``pkt`` is the planned packet whose arrival at the uplink's far
        end resumed planning, and ``hand`` where it enters there; it is
        handed on first, as the link would.
        """
        if pkt is not None:
            hand(pkt)
        # `_uplink` only when the route is missing, as in `_emit`: no
        # frame per plan
        link = self._out.get(self.dst) or self._uplink()
        sim = self.sim
        if link._owner is self and link.up and not sim._tracing:
            planned = self._planned
            # what is emitted by now leaves the plan; the rest stays
            del planned[:bisect_right(planned, sim._now, key=_EMITTED)]
            # settling what left before now bounds the queue
            link._settle()
            departures = link._departures
            limit = link.queue_packets
            src, dst, flow_id = self.src, self.dst, self.flow_id
            size = self.packet_bytes
            ser = (link.serialization_delay(size) if link._ser_overridden
                   else size * 8.0 / link.rate_bps)
            delay = link.delay_s
            feed = None
            if dst == link.dst or not link._plans_through:
                hand, hops = link._propagated, 0
            else:
                # the far node's next link, where the uplink's
                # `_propagated` would offer the packet at its arrival
                nxt = link._next.get(dst)
                if nxt is None:
                    link._route(link.dst, dst)
                    nxt = link._next[dst]
                self._nxt = nxt
                hand = nxt.enqueue
                hops = 1
                if nxt._feeder is self or self._feeds(nxt):
                    feed = nxt._feed
            port = self.port
            next_gap = self._next_gap
            until = min(end, self.stop_at)
            tail = departures[-1][0] if departures else t
            sent = self._sent
            full = sent + _BATCH
            arrivals: list[float] = []
            packets: list[Packet] = []
            resume = -1
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
                # created_at, hops)
                packets.append(Packet(src, dst, size, "UDP", flow_id, port,
                                      None, sent, "", -1, t, hops))
                arrivals.append(tail + delay)
                t = t + next_gap()
                if sent >= full and arrivals[0] <= t:
                    # the latest arrival at or before t resumes planning
                    resume = len(arrivals) - 1
                    while arrivals[resume] > t:
                        resume -= 1
                    break
            self._sent = sent
            planned += packets
            if resume >= 0:
                resume_at = arrivals.pop(resume)
                last = packets.pop(resume)
            if feed is not None:
                # each takes the seq its entry at the router would have
                seq = sim._seq
                sim._seq += len(packets)
                feed += zip(arrivals, range(seq + 1, sim._seq + 1), packets)
            else:
                for arrival, pkt in zip(arrivals, packets):
                    sim.call_at(arrival, hand, pkt)
            if resume >= 0:
                sim.call_at(resume_at, self._plan, t, end, hand, last)
                return
        sim.call_at(t, self._tick, end)

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
        """Take back the packets planned past now (the uplink is going
        down, or another sender now shares it): the heap entry that was
        to carry each to the far end fires at its emission instant
        instead and offers it to the uplink then, so the run fires as
        many entries as one that never planned. A packet withdrawn
        earlier is in no plan: its entry waits for its instant already.
        A packet in flight reaches the far end through the uplink's
        ``_propagated`` again (:meth:`_take_back`)."""
        now = self.sim._now
        planned = self._planned
        emitted = bisect_right(planned, now, key=_EMITTED)
        later = planned[emitted:]
        del planned[emitted:]
        if later:
            self._sent -= len(later)
            # their records are the uplink's newest, none of them settled
            departures = self._uplink()._departures
            for _ in later:
                departures.pop()
        self._take_back(later)

    def _take_back(self, later: list[Packet] | tuple = ()) -> None:
        """Move the pending entries of this source's packets, under their
        seqs: a packet in ``later`` to its emission instant, to be
        offered to the uplink then (:meth:`_replay`); any other that
        enters the router's next link directly to the uplink's
        ``_propagated`` at its arrival, which checks the uplink is up and
        routes the packet as it is then. ``hops`` is reset to 0 on both.
        A link this source feeds is unfed first, so its packets are
        entries too. The network calls this alone when its routes
        change."""
        nxt = self._nxt
        if not later and nxt is None:
            return
        self._nxt = None
        direct = None
        if nxt is not None:
            if nxt._feeder is self:
                nxt._unfeed()
            direct = nxt.enqueue
        ids = set()
        for pkt in later:
            pkt.hops = 0
            ids.add(id(pkt))
        propagated = self._uplink()._propagated
        plan, replay, src = self._plan, self._replay, self.src

        def back(time, _seq, fn, args):
            if fn == plan:
                t, end, hand, pkt = args
                if id(pkt) in ids:
                    return pkt.created_at, replay, ((t, end), pkt)
                if hand == direct:
                    pkt.hops = 0
                    return time, plan, (t, end, propagated, pkt)
            elif args and id(args[-1]) in ids:
                return args[-1].created_at, replay, (None, args[-1])
            elif fn == direct and args[0].src == src:
                args[0].hops = 0
                return time, propagated, args
            return None

        self.sim.rewrite(back)

    def _replay(self, resume: tuple | None, pkt: Packet) -> None:
        """A withdrawn packet's emission instant: offer it as any sender
        would, then resume planning if its arrival was to."""
        self._sent += 1
        self._uplink().enqueue(pkt)
        if resume is not None:
            self._plan(*resume)


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
