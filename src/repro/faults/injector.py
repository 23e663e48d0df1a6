"""Installs a :class:`~repro.faults.plan.FaultPlan` on an engine.

All fault activations ride the DES clock via ``sim.call_later``, so a
plan's effects are totally ordered with everything else in the run.
An **empty plan schedules nothing and creates no RNG streams** —
installing it leaves the run byte-identical to one without the
subsystem (the inertness half of the determinism contract).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.control import ControlFaultState, HeartbeatMonitor
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ServiceEngine

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules a plan's faults and wires per-session fault state."""

    def __init__(self, engine: ServiceEngine, plan: FaultPlan, retry=None,
                 heartbeat: bool = False) -> None:
        self.engine = engine
        self.plan = plan
        #: RetryPolicy handed to every ClientSession (None = no retry)
        self.retry = retry
        #: run a HeartbeatMonitor on every session's control channel
        self.heartbeat = heartbeat
        self.monitors: list[HeartbeatMonitor] = []
        self.control_state: ControlFaultState | None = None
        self._install()

    # -- installation ------------------------------------------------------
    def _ensure_control_state(self) -> ControlFaultState:
        if self.control_state is None:
            self.control_state = ControlFaultState(
                self.engine.rng.stream("faults:control")
            )
        return self.control_state

    def _install(self) -> None:
        sim = self.engine.sim
        for f in self.plan.faults:
            if f.kind == "link-down":
                self._check_link(f.src, f.dst)
                self._schedule_outage(f.src, f.dst, f.at, f.duration_s)
            elif f.kind == "link-flap":
                self._check_link(f.src, f.dst)
                for i in range(f.count):
                    self._schedule_outage(f.src, f.dst,
                                          f.at + i * f.period_s, f.down_s)
            elif f.kind == "server-crash":
                ms = self._resolve_media_server(f.server, f.media_server)
                sim.call_later(f.at, ms.crash)
            elif f.kind == "control-partition":
                state = self._ensure_control_state()
                sim.call_later(f.at, self._partition, state, True)
                sim.call_later(f.at + f.duration_s,
                               self._partition, state, False)
            elif f.kind == "control-impair":
                state = self._ensure_control_state()
                sim.call_later(f.at, state.impair,
                               f.drop_prob, f.delay_s, f.jitter_s)
                sim.call_later(f.at + f.duration_s, state.clear_impair)
            else:  # pragma: no cover - plan validation catches this
                raise ValueError(f"unknown fault kind {f.kind!r}")

    def _resolve_media_server(self, server: str, media_server: str):
        """A crash target may be a primary or an edge replica
        (``media@region``) — anywhere the service can serve from."""
        try:
            srv = self.engine.servers[server]
        except KeyError:
            known = sorted(self.engine.servers)
            raise ValueError(
                f"server-crash targets unknown server {server!r}; "
                f"known servers: {known}") from None
        candidates = list(srv.all_media_servers())
        for ms in candidates:
            if ms.name == media_server:
                return ms
        known = sorted(ms.name for ms in candidates)
        raise ValueError(
            f"server-crash targets unknown media server "
            f"{media_server!r} on {server!r}; known media servers: "
            f"{known}")

    def _check_link(self, src: str, dst: str) -> None:
        links = self.engine.network.links
        if (src, dst) not in links and (dst, src) not in links:
            raise ValueError(f"no link between {src!r} and {dst!r}")

    def _schedule_outage(self, src: str, dst: str, at: float,
                         duration_s: float) -> None:
        sim = self.engine.sim
        sim.call_later(at, self._set_link, src, dst, False)
        sim.call_later(at + duration_s, self._set_link, src, dst, True)

    def _set_link(self, src: str, dst: str, up: bool) -> None:
        links = self.engine.network.links
        for key in ((src, dst), (dst, src)):
            link = links.get(key)
            if link is not None:
                link.set_up(up)

    def _partition(self, state: ControlFaultState, on: bool) -> None:
        state.partitioned = on
        sim = self.engine.sim
        if sim._tracing:
            sim._tracer.emit(sim.now, "fault.ctl_partition", "control",
                             state="on" if on else "off")

    # -- per-session wiring (called by engine.open_session) -----------------
    def on_session_opened(self, channel, client, handler) -> None:
        if self.control_state is not None:
            channel.client.fault = self.control_state
            channel.server.fault = self.control_state
        if self.retry is not None:
            client.retry = self.retry
            client.retry_rng = self.engine.rng.stream("faults:retry")
        if self.heartbeat:
            self.monitors.append(HeartbeatMonitor(
                self.engine.sim, channel.client, name=handler.session_id))

    def stop(self) -> None:
        """Stop all heartbeat monitors (lets the event queue drain)."""
        for monitor in self.monitors:
            monitor.stop()
