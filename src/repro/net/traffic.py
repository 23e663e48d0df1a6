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
of the source's draws, so the source plans: it admits each packet to
the uplink ahead of its emission instant, exactly as
:meth:`~repro.net.link.Link.enqueue` would at that instant, and
schedules only the packet's arrival at the far end. Planning goes on
until the next emission falls at or after the last planned packet's
arrival, whose entry resumes it, so no heap entry marks an emission and
no emission is admitted after its instant (nor seen before it: a planned
record departs after now, so reading the link settles none, and
``packets_sent`` leaves out what is planned past now). A burst whose
gap is shorter than the uplink's serialisation plus delay is planned
whole when it starts. Where a plan cannot be exact the source keeps an
entry at each emission instant and sends through ``enqueue``, as a
sender on a shared link must: under a tracer (its rows stay in time
order; attach one before the run), on a link another source shares,
while the uplink is down, and for a packet the uplink's queue would
drop. ON/OFF bursts keep their start and end entries. The source keeps
the packets of its latest plan, so an uplink going down withdraws
exactly those planned past that instant; each is offered to the uplink
at its own instant instead, and is in no plan until then.
"""

from __future__ import annotations

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


class _TrafficBase:
    #: the time from one emission to the next, a C callable set by the
    #: subclass (drawn for Poisson, fixed inside an ON/OFF burst), so
    #: the planning loop enters no Python frame for it
    _next_gap: Callable[[], float]

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        rng: np.random.Generator,
        packet_bytes: int = 1000,
        flow_id: str = "",
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
        self.flow_id = flow_id or f"xtraffic:{src}->{dst}"
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
            self.src, self.dst, self.packet_bytes, "UDP", self.flow_id, 9,
            seq=self._sent, created_at=self.sim._now))

    def _plan(self, t: float, end: float, pkt: Packet | None = None) -> None:
        """Go on from the tick at ``t`` (not before now), inside a burst
        ending at ``end``: admit every emission that can be planned, then
        leave the one entry that resumes the source.

        ``pkt`` is the planned packet whose arrival at the uplink's far
        end resumed planning; it is handed on first, as the link would.
        """
        # `_uplink` only when the route is missing, as in `_emit`: no
        # frame per plan
        link = self._out.get(self.dst) or self._uplink()
        if pkt is not None:
            link._propagated(pkt)
        sim = self.sim
        if link._owner is self and link.up and not sim._tracing:
            # every packet of the previous plan has been emitted by now
            self._planned = planned = []
            stop = self.stop_at
            departures = link._departures
            # settle what left the transmitter before now, as `enqueue`
            # (and any read of the link) does; this bounds the queue
            now = sim._now
            stats = link._stats
            while departures and departures[0][0] < now:
                _, ser, size = departures.popleft()
                stats.busy_time += ser
                stats.tx_packets += 1
                stats.tx_bytes += size
            limit = link.queue_packets
            src, dst, flow_id = self.src, self.dst, self.flow_id
            size = self.packet_bytes
            ser = (link.serialization_delay(size) if link._ser_overridden
                   else size * 8.0 / link.rate_bps)
            delay = link.delay_s
            next_gap = self._next_gap
            while t < end and t < stop:
                # `enqueue`'s admission at instant t; none of the records
                # is settled early, so reads of the link see no plan.
                # Written out as in `Link.enqueue`: a shared method would
                # cost a call per background packet (8.91 against
                # XTRAFFIC_PACKET_BUDGET's 8.5 in the Poisson case)
                if len(departures) > limit and sum(
                        1 for d in departures if d[0] >= t) > limit:
                    break  # a drop: it happens at its instant
                tail = departures[-1][0] if departures else t
                departure = (tail if tail > t else t) + ser
                departures.append((departure, ser, size))
                self._sent += 1
                pkt = Packet(src, dst, size, "UDP", flow_id, 9,
                             seq=self._sent, created_at=t)
                planned.append(pkt)
                arrival = departure + delay
                t = t + next_gap()
                if t < arrival:
                    sim.call_at(arrival, link._propagated, pkt)
                else:
                    sim.call_at(arrival, self._plan, t, end, pkt)
                    return
        sim.call_at(t, self._tick, end)

    def _withdraw(self) -> None:
        """Take back the packets planned past now (the uplink is going
        down, or another sender now shares it): the heap entry that was
        to carry each to the far end fires at its emission instant
        instead and offers it to the uplink then, so the run fires as
        many entries as one that never planned. A packet withdrawn
        earlier is in no plan: its entry waits for its instant already."""
        now = self.sim._now
        planned = self._planned
        emitted = sum(1 for pkt in planned if pkt.created_at <= now)
        later = planned[emitted:]
        if not later:
            return
        del planned[emitted:]
        self._sent -= len(later)
        # their records are the uplink's newest, none of them settled
        departures = self._uplink()._departures
        for _ in later:
            departures.pop()
        ids = {id(pkt) for pkt in later}

        def back(_time, _seq, fn, args):
            if args and id(args[-1]) in ids:
                pkt = args[-1]
                resume = args[:-1] if fn == self._plan else None
                return pkt.created_at, self._replay, (resume, pkt)
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
        self.rate_bps = rate_bps
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
        self.peak_rate_bps = peak_rate_bps
        self.on_mean_s = on_mean_s
        self.off_mean_s = off_mean_s
        super().__init__(network, src, dst, rng, **kw)
        gap = self.packet_bytes * 8.0 / peak_rate_bps
        self._next_gap = repeat(gap).__next__

    @property
    def mean_rate_bps(self) -> float:
        duty = self.on_mean_s / (self.on_mean_s + self.off_mean_s)
        return self.peak_rate_bps * duty

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
