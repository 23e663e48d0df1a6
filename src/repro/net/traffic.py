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
like the data path it loads: a chain of ``call_later`` callbacks (no
process, no event object per packet), exponential lengths read from its
stream in blocks (:func:`~repro.des.rng.block_draws`: the stream must
be the source's alone), each packet built here and offered to the link
the route table names. A source only sends: it binds no port, and its
packets are discarded at the target's port 9.
"""

from __future__ import annotations

import numpy as np

from repro.des import Simulator
from repro.des.rng import block_draws
from repro.net.packet import Packet
from repro.net.topology import Network

__all__ = ["PoissonTrafficSource", "OnOffTrafficSource"]


class _TrafficBase:
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
        self.packets_sent = 0
        #: triggers when the source has stopped for good; its heap entry
        #: is one of the events every pinned run counts
        self.done = self.sim.event()
        #: unit-mean exponential lengths, scaled where they are used
        self._draw = block_draws(rng.standard_exponential)
        #: the node's next-link table, which the network edits in place
        self._out = network._out_links[src]
        self.sim.call_later(0.0, self._start)

    def _start(self) -> None:
        if self.start_at > 0:
            self.sim.call_later(self.start_at, self._cycle)
        else:
            self._cycle()

    def _emit(self) -> None:
        self.packets_sent += 1
        dst = self.dst
        out = self._out
        if dst not in out:
            self.network._route(self.src, dst)
        out[dst].enqueue(Packet(
            self.src, dst, self.packet_bytes, "UDP", self.flow_id, 9,
            seq=self.packets_sent, created_at=self.sim._now))


class PoissonTrafficSource(_TrafficBase):
    """Poisson packet arrivals at ``rate_bps`` mean load."""

    def __init__(self, network, src, dst, rng, rate_bps: float, **kw) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.rate_bps = rate_bps
        super().__init__(network, src, dst, rng, **kw)

    def _cycle(self, arrival: bool = False) -> None:
        """Send the arrival that fell due, if one did, and draw the next."""
        sim = self.sim
        if sim._now < self.stop_at:
            if arrival:
                self._emit()
            mean = self.packet_bytes * 8.0 / self.rate_bps
            sim.call_later(mean * self._draw(), self._cycle, True)
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

    @property
    def mean_rate_bps(self) -> float:
        duty = self.on_mean_s / (self.on_mean_s + self.off_mean_s)
        return self.peak_rate_bps * duty

    def _cycle(self) -> None:
        now = self.sim._now
        if now < self.stop_at:
            self._burst(now + self.on_mean_s * self._draw())
        else:
            self.done.succeed()

    def _burst(self, end: float) -> None:
        """Send at peak rate until ``end`` or ``stop_at``, whichever is
        first; an OFF period follows either way."""
        sim = self.sim
        if sim._now < end and sim._now < self.stop_at:
            self._emit()
            sim.call_later(self.packet_bytes * 8.0 / self.peak_rate_bps,
                           self._burst, end)
        else:
            sim.call_later(self.off_mean_s * self._draw(), self._cycle)
