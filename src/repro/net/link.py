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

__all__ = ["Link", "LinkStats"]


@dataclass(slots=True)
class LinkStats:
    """Counters a link maintains for experiment reporting."""

    tx_packets: int = 0
    tx_bytes: int = 0
    queue_drops: int = 0
    loss_drops: int = 0
    #: packets discarded because the link was administratively down
    #: (fault injection), at ingress or while in flight
    fault_drops: int = 0
    busy_time: float = 0.0

    def utilisation(self, elapsed: float) -> float:
        return 0.0 if elapsed <= 0 else self.busy_time / elapsed


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
        #: administrative state; a downed link drops everything offered
        #: to it and everything still propagating when it went down
        self.up = True
        self._stats = LinkStats()
        self.on_arrival: Callable[[Packet], None] | None = None
        self.on_drop: Callable[[Packet, str], None] | None = None
        #: the far node's next-link table and its router (set by a network)
        self._next: dict[str, Link] = {}
        self._route: Callable[[str, str], object] | None = None
        #: the traffic source that plans across this link
        #: (:mod:`repro.net.traffic`), False once two sources share it
        self._owner = None

    @property
    def stats(self) -> LinkStats:
        """The counters as of now: transmissions that ended before now
        are counted first, so they read as if each were an event."""
        departures, now = self._departures, self.sim._now
        stats = self._stats
        while departures and departures[0][0] < now:
            _, ser, size = departures.popleft()
            stats.busy_time += ser
            stats.tx_packets += 1
            stats.tx_bytes += size
        return stats

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
        if not up and self._owner:
            # a packet planned past now meets the link as it is then
            self._owner._withdraw()
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

    # -- ingress ---------------------------------------------------------
    def enqueue(self, pkt: Packet) -> bool:
        """Offer a packet; returns False (and counts a drop) if full."""
        if not self.up:
            self._drop_down(pkt)
            return False
        sim = self.sim
        now = sim._now
        departures = self._departures
        stats = self._stats
        # settle what has left the transmitter: `stats`'s loop, inline
        # because this is the per-hop path and a call would cost more
        while departures and departures[0][0] < now:
            _, ser, size = departures.popleft()
            stats.busy_time += ser
            stats.tx_packets += 1
            stats.tx_bytes += size
        if len(departures) > self.queue_packets:
            stats.queue_drops += 1
            if sim._tracing:
                sim._tracer.emit(now, "link.drop", self.name,
                                 reason="queue", seq=pkt.seq,
                                 flow=pkt.flow_id, session=pkt.session,
                                 frame=pkt.frame_seq)
            if self.on_drop is not None:
                self.on_drop(pkt, "drop-queue")
            return False
        size = pkt.size_bytes
        ser = (self.serialization_delay(size) if self._ser_overridden
               else size * 8.0 / self.rate_bps)
        departure = (departures[-1][0] if departures else now) + ser
        departures.append((departure, ser, size))
        sim.call_at(departure + self.delay_s, self._propagated, pkt)
        if sim._tracing_detail:
            sim._tracer.emit(now, "link.enqueue", self.name,
                             depth=len(departures) - 1,
                             flow=pkt.flow_id, seq=pkt.seq,
                             session=pkt.session, frame=pkt.frame_seq)
        return True

    def _propagated(self, pkt: Packet) -> None:
        if not self.up:
            self._drop_down(pkt)
            return
        loss = self._packet_loss
        if loss is not None and (
            loss.is_lost(flow=pkt.flow_id, seq=pkt.seq,
                         session=pkt.session, frame=pkt.frame_seq)
            if self.sim._tracing_detail
            else loss.is_lost()
        ):
            self._stats.loss_drops += 1
            if self.sim._tracing:
                self.sim._tracer.emit(self.sim.now, "link.drop", self.name,
                                      reason="loss", seq=pkt.seq,
                                      flow=pkt.flow_id,
                                      session=pkt.session,
                                      frame=pkt.frame_seq)
            if self.on_drop is not None:
                self.on_drop(pkt, "drop-loss")
            return
        pkt.hops += 1
        dst = pkt.dst
        if dst == self.dst:
            self.on_arrival(pkt)
            return
        out = self._next
        if dst not in out:
            self._route(self.dst, dst)
        out[dst].enqueue(pkt)
