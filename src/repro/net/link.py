"""Point-to-point links: finite rate, propagation delay, drop-tail queue.

Queueing delay and overflow loss — the "network's load conditions and
probabilistic behavior" the paper's buffering layer exists to absorb —
emerge here rather than being injected as closed-form noise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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
    occupancy_samples: list[tuple[float, int]] = field(default_factory=list)

    def utilisation(self, elapsed: float) -> float:
        return 0.0 if elapsed <= 0 else self.busy_time / elapsed


class Link:
    """Unidirectional link ``src -> dst``.

    A busy flag, a bounded drop-tail ``deque`` and two scheduled
    calls per packet: an idle transmitter starts serialising at
    :meth:`enqueue`, a busy one queues the packet (or drops it when
    ``queue_packets`` are already waiting); ``_tx_done`` fires after
    ``size * 8 / rate_bps``, counts the transmission, schedules
    ``_propagated`` after ``delay_s`` and starts the next queued
    packet; ``_propagated`` hands the packet to ``on_arrival`` (wired
    by the :class:`~repro.net.topology.Network` to the next hop).
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
        self._queue: deque[Packet] = deque()
        self._busy = False
        # The transmitter computes a plain link's delay inline, per
        # packet; a subclass that overrides serialization_delay (ATM
        # cells) is asked instead.
        self._ser_overridden = (type(self).serialization_delay
                                is not Link.serialization_delay)
        self.loss_model = loss_model
        #: administrative state; a downed link drops everything offered
        #: to it and everything still propagating when it went down
        self.up = True
        self.stats = LinkStats()
        self.on_arrival: Callable[[Packet], None] | None = None
        self.on_drop: Callable[[Packet, str], None] | None = None

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
        self.up = up
        if self.sim._tracing:
            self.sim._tracer.emit(self.sim.now, "fault.link", self.name,
                                  state="up" if up else "down")

    def _drop_down(self, pkt: Packet) -> None:
        self.stats.fault_drops += 1
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
        if not self._busy:
            self._busy = True
            ser = (self.serialization_delay(pkt.size_bytes)
                   if self._ser_overridden
                   else pkt.size_bytes * 8.0 / self.rate_bps)
            self.sim.call_later(ser, self._tx_done, pkt, ser)
        elif len(self._queue) < self.queue_packets:
            self._queue.append(pkt)
        else:
            self.stats.queue_drops += 1
            if self.sim._tracing:
                self.sim._tracer.emit(self.sim.now, "link.drop", self.name,
                                      reason="queue", seq=pkt.seq,
                                      flow=pkt.flow_id,
                                      session=pkt.session,
                                      frame=pkt.frame_seq)
            if self.on_drop is not None:
                self.on_drop(pkt, "drop-queue")
            return False
        if self.sim._tracing_detail:
            self.sim._tracer.emit(self.sim.now, "link.enqueue",
                                  self.name, depth=len(self._queue),
                                  flow=pkt.flow_id, seq=pkt.seq,
                                  session=pkt.session,
                                  frame=pkt.frame_seq)
        return True

    # -- transmitter -------------------------------------------------------
    def _tx_done(self, pkt: Packet, ser: float) -> None:
        """``pkt`` has left the transmitter: count it, propagate it, and
        start on the next queued packet."""
        stats = self.stats
        stats.busy_time += ser
        stats.tx_packets += 1
        stats.tx_bytes += pkt.size_bytes
        # Propagation first: at equal fire times this packet's arrival
        # precedes the next packet's _tx_done (digests depend on it).
        sim = self.sim
        sim.call_later(self.delay_s, self._propagated, pkt)
        if self._queue:
            pkt = self._queue.popleft()
            ser = (self.serialization_delay(pkt.size_bytes)
                   if self._ser_overridden
                   else pkt.size_bytes * 8.0 / self.rate_bps)
            sim.call_later(ser, self._tx_done, pkt, ser)
        else:
            self._busy = False

    def _propagated(self, pkt: Packet) -> None:
        if not self.up:
            self._drop_down(pkt)
            return
        if self.loss_model is not None and (
            self.loss_model.is_lost(flow=pkt.flow_id, seq=pkt.seq,
                                    session=pkt.session, frame=pkt.frame_seq)
            if self.sim._tracing_detail
            else self.loss_model.is_lost()
        ):
            self.stats.loss_drops += 1
            if self.sim._tracing:
                self.sim._tracer.emit(self.sim.now, "link.drop", self.name,
                                      reason="loss", seq=pkt.seq,
                                      flow=pkt.flow_id,
                                      session=pkt.session,
                                      frame=pkt.frame_seq)
            if self.on_drop is not None:
                self.on_drop(pkt, "drop-loss")
            return
        if self.on_arrival is not None:
            pkt.hops += 1
            self.on_arrival(pkt)

    def sample_occupancy(self) -> None:
        """Record (now, queue length) for occupancy-trace experiments."""
        self.stats.occupancy_samples.append((self.sim.now, len(self._queue)))
