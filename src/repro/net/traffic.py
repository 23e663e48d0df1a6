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

A source runs one of two ways, and nothing it sends exists before its
emission instant in either.

*Fed.* When its uplink is up, plans through and does not end at the
target, the router's link to the target is a plain link that is up,
the target leaves port 9 unbound (every engine run) and no other
source feeds either link, the source feeds both (``Link._feeder``) and
keeps no heap entry per step. Whoever touches either link first
(:meth:`~repro.net.link.Link.enqueue`, a read of ``stats``, ``set_up``,
the router link's loss draw or catch-up, ``packets_sent``, the return
from ``Simulator.run``) has the source produce the steps before now
(:meth:`_TrafficBase._produce`): each draw, in order, each emission
admitted to the uplink at its instant with ``enqueue``'s settle /
drop-tail / append, and its arrival at the router appended to that
link's ``_feed`` under a seq taken then, which the link admits in its
own catch-up, every ``_PRODUCED_AT_ONCE`` packets. A catch-up with
nothing due compares the source's next step with now and calls
nothing. A fed source with a finite ``stop_at`` keeps one entry there,
which ends its feed, so its last steps (and ``done``) fire at entries
of their own, where the generator loop it replaced fired them.

*Ticking.* Otherwise the source keeps an entry at each step (each
emission, and an ON/OFF source's burst ends and OFF periods) and sends
through ``enqueue``, as any sender does: under a tracer, beside
another source on either link, while either link is down, when the
uplink draws loss or ends at the target, and when the port is bound or
the route goes elsewhere. The run then fires, entry for entry, what
the generator loop fired. At each step the source asks again whether
it may feed from its next step on.

Either link going down, a route change, port 9 bound at the target, a
tracer or a second source on either link end a feed
(``Link._unfeed``): the source produces what is due, each packet
pending on the router link is the entry it replaced again, under its
seq (the uplink's ``_propagated`` at the router, which finds the
uplink and the routes as they are when it arrives, or the router
link's ``_propagated`` at the target), and the source ticks from its
next step.

Two orders differ from a source that does not feed, both at exact
ties. An emission at exactly now is produced only after every entry at
now, where a ticking source sends it at an entry pushed at its
previous step: a read at that instant from an entry pushed after that
step sees it not yet sent. A fed packet takes its seq when it is
produced, in the first catch-up after its emission instant, where a
ticking source's entry at the router takes one at the emission: an
entry at the router for exactly its arrival, pushed between the two,
fires before it instead of after it, and its arrival at the target is
ordered by the same seq (``tests/test_net_traffic_impairments.py``:
``test_a_fed_step_is_ordered_where_it_is_produced``,
``test_a_fed_arrival_is_ordered_by_its_production``).
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Callable

import numpy as np

from repro.des import Simulator
from repro.des.rng import block_draws
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.topology import Network

__all__ = ["PoissonTrafficSource", "OnOffTrafficSource"]

_INF = float("inf")
#: packets one production emits at most before the router link admits
#: and delivers what is due (see ``Link._catch_up``), so a catch-up after
#: a long quiet spell never holds that spell's packets at once
_PRODUCED_AT_ONCE = 256


class _TrafficBase:
    #: the time from one emission to the next, a C callable set by the
    #: subclass (drawn for Poisson, fixed inside an ON/OFF burst), so
    #: production enters no Python frame for it
    _next_gap: Callable[[], float]
    #: the target's port the packets go to: while nothing binds it,
    #: they are discarded there and the source may feed (:meth:`_feeds`)
    port = 9
    #: the end of the burst the next step is in (a Poisson source is in
    #: one burst), and whether that step ends an OFF period instead
    _end = _INF
    _off = False

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
        #: the last seq: packets emitted (and, fed, produced) so far
        self._sent = 0
        #: the instant of the next step: a ticking source's pending
        #: entry, so never before now, or a fed source's next step to
        #: produce; infinite before the start and after the stop
        self._at = _INF
        #: ``(uplink, router link)`` while this source feeds them
        self._links: tuple[Link, Link] | None = None
        #: whether the entry at ``stop_at`` that ends a feed is pushed
        self._stopping = False
        #: triggers when the source has stopped for good; its heap entry
        #: is one of the events every pinned run counts
        self.done = self.sim.event()
        #: unit-mean exponential lengths, scaled where they are used
        self._draw = block_draws(rng.standard_exponential)
        #: the node's next-link table, which the network edits in place
        self._out = network._out_links[src]
        self.sim.call_later(0.0, self._start)

    @property
    def packets_sent(self) -> int:
        """Packets emitted before now (fed, one at exactly now is
        produced after every entry at now)."""
        sim = self.sim
        if self._at < sim._now:
            fed: Link = self._links[1]
            fed._catch_up(sim._now, sim._firing)
        return self._sent

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

    def _finish(self) -> None:
        """Stop for good: no step is left."""
        self._at = _INF
        self.done.succeed()

    def _go(self) -> None:
        """Go on to the step at ``_at``: produced when due if this source
        may feed, else at an entry of its own."""
        if not self._feeds():
            self._tick_on()

    def _tick_on(self) -> None:
        """Push the entry of the step at ``_at``."""
        self.sim.call_at(self._at, self._cycle if self._off else self._tick)

    def _feeds(self) -> bool:
        """Whether this source may feed its uplink and the router's link
        to its target from the step at ``_at`` on; if so, it does.

        A link another source feeds is fed back into entries, and
        neither source feeds it again. A link planned across is disowned
        first: a packet planned across the uplink or the router link
        would be admitted ahead of the produced packets that reach it
        before.
        """
        sim = self.sim
        if sim._tracing or self._at >= self.stop_at:
            return False
        dst = self.dst
        # `_uplink` only when the route is missing, as in `_emit`
        uplink = self._out.get(dst) or self._uplink()
        if not (uplink.up and uplink._plans_through and dst != uplink.dst):
            return False
        nxt = uplink._next.get(dst)
        if nxt is None:
            uplink._route(uplink.dst, dst)
            nxt = uplink._next[dst]
        for link in (uplink, nxt):
            if link._feeder:
                link._unfeed()
                link._feeder = False
        network = self.network
        if (uplink._feeder is False or nxt._feeder is False
                or nxt.dst != dst or type(nxt) is not Link or not nxt.up
                or self.port in network.nodes[dst]._ports):
            return False
        uplink._disown()
        nxt._disown()
        if nxt._feed is None:
            nxt._feed, nxt._far = deque(), deque()
        uplink._feeder = nxt._feeder = self
        self._links = (uplink, nxt)
        network._fed[nxt] = None
        if network._rest not in sim._offheap:
            sim._offheap.append(network._rest)
        if not self._stopping and self.stop_at < _INF:
            self._stopping = True
            sim.call_at(self.stop_at, self._stop)
        return True

    def _stop(self) -> None:
        """``stop_at``: a fed source ticks its last steps, which end
        where the generator loop's did (``done`` among them)."""
        if self._links is not None:
            self._links[1]._unfeed()

    def _produce(self) -> bool:
        """Take the steps before now, which no entry stood for: draw
        each length, admit each emission to the uplink at its instant as
        :meth:`~repro.net.link.Link.enqueue` would then (dropping it if
        the queue is full), and append its arrival at the router to the
        router link's feed under a seq taken now. A step at exactly now
        waits for a later catch-up. Stops after ``_PRODUCED_AT_ONCE``
        packets; returns whether steps before now are left."""
        sim = self.sim
        now = sim._now
        uplink: Link
        fed: Link
        uplink, fed = self._links
        t, end, off = self._at, self._end, self._off
        departures = uplink._departures
        stats = uplink._stats
        limit = uplink.queue_packets
        size = self.packet_bytes
        # a link that plans through has no cell layer
        ser = size * 8.0 / uplink.rate_bps
        delay = uplink.delay_s
        feed = fed._feed
        next_gap, draw = self._next_gap, self._draw
        src, dst, flow_id, port = self.src, self.dst, self.flow_id, self.port
        sent = self._sent
        last = sent + _PRODUCED_AT_ONCE
        while t < now:
            if t < end:
                sent += 1
                # positional: (..., payload, seq, session, frame_seq,
                # created_at)
                pkt = Packet(src, dst, size, "UDP", flow_id, port, None,
                             sent, "", -1, t)
                # `enqueue`'s settle, drop-tail and append at instant t
                # (see the comment there)
                while departures and departures[0][0] < t:
                    _, s, b = departures.popleft()
                    stats.busy_time += s
                    stats.tx_packets += 1
                    stats.tx_bytes += b
                if len(departures) > limit:
                    uplink._drop_queue(pkt)
                else:
                    departure = (departures[-1][0] if departures
                                 else t) + ser
                    departures.append((departure, ser, size))
                    sim._seq = seq = sim._seq + 1
                    feed.append((departure + delay, seq, pkt))
                t = t + next_gap()
                if sent == last:
                    break
            elif off:
                # the OFF period is over: a burst starts, emitting at t
                end = t + self.on_mean_s * draw()
                off = False
            else:
                # the burst is over: an OFF period follows
                t = t + self.off_mean_s * draw()
                off = True
        self._at, self._end, self._off = t, end, off
        self._sent = sent
        return t < now


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
            self._at = now + self._next_gap()
            self._go()
        else:
            self._finish()

    def _tick(self) -> None:
        """Send the arrival that fell due, if it is before ``stop_at``,
        and draw the next."""
        now = self.sim._now
        if now < self.stop_at:
            self._emit()
            self._at = now + self._next_gap()
            self._go()
        else:
            self._finish()


class OnOffTrafficSource(_TrafficBase):
    """Exponential ON/OFF source bursting at ``peak_rate_bps``.

    Mean load is ``peak_rate_bps * on_mean_s / (on_mean_s + off_mean_s)``.
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
        """An OFF period ends: burst, emitting now, unless stopped."""
        now = self.sim._now
        if now < self.stop_at:
            self._at = now
            self._end = now + self.on_mean_s * self._draw()
            self._off = False
            if not self._feeds():
                self._tick()
        else:
            self._finish()

    def _tick(self) -> None:
        """Send at peak rate until the burst's end or ``stop_at``,
        whichever is first; an OFF period follows either way."""
        now = self.sim._now
        if now < self._end and now < self.stop_at:
            self._emit()
            self._at = now + self._next_gap()
        else:
            self._at = now + self.off_mean_s * self._draw()
            self._off = True
        self._go()
