"""ATM cell-layer links (the paper's §7 future-work testbed).

"Future work will focus on ... the implementation of a testbed
application on an ATM network." This module adds an AAL5-style cell
layer to the link model: every packet is segmented into 53-byte cells
(48 bytes of payload each), serialization pays the ~10% cell-header
tax, and — the characteristic ATM effect — loss of *any one cell*
destroys the whole packet, amplifying a small cell-loss rate into a
much larger packet-loss rate for large (multi-cell) packets.
"""

from __future__ import annotations

from repro.des import Simulator
from repro.net.link import Link
from repro.net.packet import Packet

__all__ = ["AtmLink", "CELL_BYTES", "CELL_PAYLOAD_BYTES", "cells_for"]

CELL_BYTES = 53
CELL_PAYLOAD_BYTES = 48


def cells_for(size_bytes: int) -> int:
    """Number of ATM cells needed for a packet (AAL5, no trailer model)."""
    if size_bytes <= 0:
        raise ValueError("size_bytes must be positive")
    return -(-size_bytes // CELL_PAYLOAD_BYTES)


class AtmLink(Link):
    """A link whose wire format is ATM cells.

    Inherits queueing and forwarding from :class:`Link` (the queue still
    holds packets; segmentation happens at the transmitter, as in an
    AAL5 NIC). The loss model, when present, is evaluated **per cell**.
    """

    def __init__(self, sim: Simulator, src: str, dst: str, rate_bps: float,
                 delay_s: float, queue_packets: int = 100,
                 loss_model=None) -> None:
        super().__init__(sim, src, dst, rate_bps, delay_s,
                         queue_packets=queue_packets, loss_model=loss_model)
        self._packet_loss = None
        self.cells_tx = 0
        self.cell_loss_events = 0

    def serialization_delay(self, size_bytes: int) -> float:
        # Full cells on the wire, headers included.
        return cells_for(size_bytes) * CELL_BYTES * 8.0 / self.rate_bps

    def _propagated(self, pkt: Packet, arrival: float | None = None) -> None:
        if not self.up:
            self._drop_down(pkt)
            return
        n_cells = cells_for(pkt.size_bytes)
        self.cells_tx += n_cells
        if self.loss_model is not None:
            lost_cells = sum(self.loss_model.is_lost() for _ in range(n_cells))
            if lost_cells:
                # One lost cell kills the AAL5 frame.
                self.cell_loss_events += lost_cells
                self._stats.loss_drops += 1
                if self.sim._tracing:
                    self.sim._tracer.emit(
                        self.sim.now, "link.drop", self.name,
                        reason="loss", seq=pkt.seq, flow=pkt.flow_id,
                        session=pkt.session, frame=pkt.frame_seq)
                if self.on_drop is not None:
                    self.on_drop(pkt, "drop-loss")
                return
        super()._propagated(pkt)
