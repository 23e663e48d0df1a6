"""Server-side delivery batching: one egress flow per hot object.

When many viewers request the same hot scenario at once, per-session
unicast sends the identical frame sequence once per viewer over the
origin's egress link. The :class:`SharedFlowManager` merges those
requests: the first request opens a *batch* that stays open for a
short window; every request for the same (media server, object,
fan-out point) joins it; then the batch's one
:class:`~repro.server.media_server.StreamHandler` starts, with a leg
per viewer on the fan-out router (the viewers' POP, or the core
router). There is no second delivery mechanism here: what is specific
to sharing is the open-batch table, the window timer and the counters;
the pump, its carrier hop, its legs and their teardown are
``media_server``'s, reached through ``MediaServer.start_stream`` like
every other stream.

What sharing costs a viewer (shared grade, no pause gate past one leg,
the batch-window delay) is listed once, in DESIGN.md ("CDN topology /
shared flows: one pump, two placements").
"""

from __future__ import annotations

from typing import Callable

from repro.des import Simulator
from repro.server.media_server import MediaServer, StreamHandler, StreamOrigin

__all__ = ["SharedFlowManager", "BATCH_WINDOW_S"]

#: how long the first request of a batch waits for joiners; it stays
#: under ``FLOW_LEAD_S`` so the client's prefill buffer absorbs the wait
BATCH_WINDOW_S = 0.25


class SharedFlowManager:
    """Batches same-object requests onto one pump with a leg each."""

    def __init__(
        self,
        sim: Simulator,
        fanout_node_for: Callable[[str], str],
    ) -> None:
        self.sim = sim
        self.fanout_node_for = fanout_node_for
        #: flow key -> pump still accepting legs (not yet started)
        self._open: dict[tuple, StreamHandler] = {}
        self.flows_started = 0
        self.joins = 0

    def join(
        self,
        ms: MediaServer,
        origin: StreamOrigin,
        send_offset_s: float = 0.0,
        initial_grade: int = 0,
    ) -> StreamHandler:
        """The open batch for one viewer's request, opened if need be.

        The first request's grade, floor and suspend preference become
        the pump's; the caller (``MediaServer.start_stream``) adds the
        viewer's leg and hands the shared converter to the session's
        Server QoS Manager exactly like a per-session stream's.
        """
        fanout = self.fanout_node_for(origin.client_node)
        key = (ms.name, origin.object_path, fanout, send_offset_s,
               origin.duration_s)
        pump = self._open.get(key)
        opened = pump is None
        if pump is None:
            pump = self._open[key] = StreamHandler(
                ms, origin, send_offset_s, initial_grade, leg_node=fanout,
                name=f"sflow:{origin.stream_id}:{fanout}",
            )
            pump.finished.callbacks.append(lambda _ev: self._finished(pump))
            self.flows_started += 1
            self.sim.call_later(BATCH_WINDOW_S, self._close_batch, key)
        self.joins += 1
        if self.sim._tracing:
            self.sim._tracer.emit(
                self.sim.now, "sflow.open" if opened else "sflow.join",
                origin.stream_id, session=origin.session_id, node=fanout,
                media=ms.name, path=origin.object_path,
            )
        return pump

    def _close_batch(self, key: tuple) -> None:
        """The window is over: the batch's pump starts with who joined."""
        pump = self._open.pop(key)
        if not pump.legs:
            return  # everyone left, or the server crashed, in the window
        pump.start()
        if self.sim._tracing:
            self.sim._tracer.emit(
                self.sim.now, "sflow.start", pump.source.stream_id,
                node=pump.node_id, fanout=pump.leg_node,
                subscribers=len(pump.legs),
            )

    def _finished(self, pump: StreamHandler) -> None:
        if self.sim._tracing:
            self.sim._tracer.emit(
                self.sim.now, "sflow.finish", pump.source.stream_id,
                node=pump.node_id, fanout=pump.leg_node,
                frames=pump.frames_sent,
                carrier_packets=pump.carrier_packets,
            )
