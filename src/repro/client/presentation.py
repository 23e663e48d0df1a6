"""The presentation scheduler — the client's orchestration core.

"The presentation scheduler, by processing the presentation scenario,
determines what media streams participate in the multimedia scenario,
and when they should be invoked. This triggers the initialization of
the corresponding media stream handlers, the associated buffer
handlers, and the appropriate media presentation handlers. In
addition, the presentation scheduler is responsible for ... the
inter- and intra-media synchronization." (§4)

Responsibilities implemented here:

* build a :class:`MediaBuffer` (+ :class:`BufferMonitor`) per
  continuous stream, sized by the media time window;
* build a :class:`SkewController` per sync group (audio as master);
* insert the intentional startup delay (the largest time window) and
  spawn one :class:`PlayoutProcess` per continuous stream plus a
  show/hide process per discrete element;
* expose pause/resume and hyperlink interruption;
* surface the QoP event log and skew series for the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.client.buffers import MediaBuffer, compute_time_window
from repro.client.metrics import PlayoutEventKind, PlayoutEventLog
from repro.client.monitor import BufferMonitor
from repro.client.playout import PauseGate, PlayoutProcess
from repro.client.renderer import VirtualRenderer
from repro.client.skew import SkewController
from repro.des import AllOf, Event, Simulator
from repro.media.types import Frame
from repro.model.scenario import PresentationScenario

__all__ = ["StreamBinding", "PresentationScheduler"]


@dataclass(frozen=True, slots=True)
class StreamBinding:
    """Per-stream delivery parameters the scheduler needs upfront."""

    stream_id: str
    clock_rate: int
    nominal_frame_interval_s: float

    def __post_init__(self) -> None:
        if self.clock_rate <= 0:
            raise ValueError("clock_rate must be positive")
        if self.nominal_frame_interval_s <= 0:
            raise ValueError("nominal_frame_interval_s must be positive")


class PresentationScheduler:
    """Builds and runs the client-side presentation machinery."""

    def __init__(
        self,
        sim: Simulator,
        scenario: PresentationScenario,
        bindings: dict[str, StreamBinding],
        time_window_s: float | None = None,
        skew_enabled: bool = True,
        session: str = "",
    ) -> None:
        self.sim = sim
        self.scenario = scenario
        #: session id stamped onto this presentation's trace events
        self.session = session
        self.log = PlayoutEventLog(sim, session)
        self.renderer = VirtualRenderer(scenario.layout)
        self.gate = PauseGate(sim)
        self.buffers: dict[str, MediaBuffer] = {}
        self.monitors: dict[str, BufferMonitor] = {}
        self.skew_controllers: dict[str, SkewController] = {}
        self.playouts: dict[str, PlayoutProcess] = {}
        self._bindings = bindings
        self._loaded: dict[str, Event] = {}
        self._discrete_done: dict[str, Event] = {}
        self._disabled: set[str] = set()
        self._interrupted = False
        self.started = False
        self.presentation_start: float | None = None
        self._start_called_at: float | None = None
        self.finished: Event | None = None

        for spec in scenario.continuous_streams():
            sid = spec.stream_id
            binding = bindings.get(sid)
            if binding is None:
                raise KeyError(f"no StreamBinding for continuous stream {sid!r}")
            window = time_window_s if time_window_s is not None \
                else compute_time_window(binding.nominal_frame_interval_s)
            buf = MediaBuffer(sid, binding.clock_rate, time_window_s=window)
            self.buffers[sid] = buf
            self.monitors[sid] = BufferMonitor(buf, sim=sim,
                                               session=session)
        for group, members in scenario.sync_groups().items():
            masters = [m for m in members if m.entry.is_sync_master]
            if not masters:
                raise ValueError(f"sync group {group} has no master stream")
            self.skew_controllers[group] = SkewController(
                group, master_id=masters[0].stream_id,
                enabled=skew_enabled, sim=sim, session=session,
            )
        for spec in scenario.discrete_streams():
            self._loaded[spec.stream_id] = sim.event()

    # -- data path -----------------------------------------------------------
    def buffer_for(self, stream_id: str) -> MediaBuffer:
        try:
            return self.buffers[stream_id]
        except KeyError:
            raise KeyError(f"no buffer for stream {stream_id!r}") from None

    def frame_sink(self, stream_id: str):
        """An ``on_frame(frame, arrival)`` callback bound to a stream.

        One call per arriving frame: :meth:`MediaBuffer.push` (its
        overflow test and counters) is written out here.
        """
        buf = self.buffer_for(stream_id)
        sim = self.sim
        frames = buf._frames
        stats = buf.stats

        def sink(frame: Frame, _arrival_s: float) -> None:
            ticks = buf._ticks_buffered + frame.duration
            if ticks / buf.clock_rate > buf.capacity_s:
                stats.overflow_drops += 1
                if sim._tracing:
                    sim._tracer.emit(sim._now, "buffer.drop", stream_id,
                                     session=self.session,
                                     frame=frame.seq, reason="overflow")
                return
            frames.append(frame)
            buf._ticks_buffered = ticks
            if sim._tracing_detail:
                sim._tracer.emit(sim._now, "buffer.push", stream_id,
                                 session=self.session,
                                 frame=frame.seq,
                                 occupancy_s=buf.occupancy_s)

        return sink

    def mark_loaded(self, element_id: str) -> None:
        """Signal that a discrete element's content has arrived."""
        ev = self._loaded.get(element_id)
        if ev is not None and not ev.triggered:
            ev.succeed(self.sim.now)

    # -- control -------------------------------------------------------------
    @property
    def initial_delay_s(self) -> float:
        """The intentional startup delay: the largest media time window."""
        if not self.buffers:
            return 0.0
        return max(b.time_window_s for b in self.buffers.values())

    def start(self) -> Event:
        """Begin the presentation after the startup delay.

        Returns an event that triggers when every stream has finished
        playing (or the presentation was interrupted).
        """
        if self.started:
            raise RuntimeError("presentation already started")
        self.started = True
        delay = self.initial_delay_s
        self._start_called_at = self.sim.now
        self.presentation_start = self.sim.now + delay
        done_events: list[Event] = []
        for spec in self.scenario.continuous_streams():
            sid = spec.stream_id
            if sid in self._disabled:
                skipped = self.sim.event()
                skipped.succeed(0.0)
                done_events.append(skipped)
                continue
            binding = self._bindings[sid]
            skew = None
            if spec.entry.sync_group is not None:
                skew = self.skew_controllers.get(spec.entry.sync_group)
            # Sync-group slaves stall on starvation (so skew develops
            # and the short-term mechanism is what re-locks the pair);
            # independent streams and masters stay deadline-driven.
            is_slave = skew is not None and not spec.entry.is_sync_master
            gap_policy = "stall" if is_slave else "advance"
            max_gaps = None
            if gap_policy == "stall":
                max_gaps = int(
                    round(20.0 / binding.nominal_frame_interval_s)
                )
            playout = PlayoutProcess(
                self.sim,
                spec.entry,
                self.buffers[sid],
                self.log,
                nominal_frame_interval_s=binding.nominal_frame_interval_s,
                monitor=self.monitors[sid],
                skew=skew,
                gate=self.gate,
                start_offset_s=delay + spec.entry.start_time,
                max_consecutive_gaps=max_gaps,
                gap_policy=gap_policy,
            )
            self.playouts[sid] = playout
            done_events.append(playout.finished)
        for spec in self.scenario.discrete_streams():
            done = self.sim.event()
            self._discrete_done[spec.stream_id] = done
            self.sim.process(
                self._discrete_playout(spec.entry, delay, done),
                name=f"show:{spec.stream_id}",
            )
            done_events.append(done)
        self.finished = AllOf(self.sim, done_events)
        return self.finished

    def _discrete_playout(self, entry, delay: float, done: Event):
        sim = self.sim
        yield sim.timeout(delay + entry.start_time)
        if self._interrupted or entry.stream_id in self._disabled:
            if not done.triggered:
                done.succeed()
            return
        loaded = self._loaded[entry.stream_id]
        if not loaded.triggered:
            yield loaded  # content late: show as soon as it arrives
        if self._interrupted or entry.stream_id in self._disabled:
            if not done.triggered:
                done.succeed()
            return
        self.renderer.show(entry.stream_id, sim.now)
        self.log.record(sim.now, entry.stream_id, PlayoutEventKind.SHOW)
        if entry.duration is not None:
            yield sim.timeout(entry.duration)
            if entry.stream_id not in self._disabled:
                self.renderer.hide(entry.stream_id, sim.now)
                self.log.record(sim.now, entry.stream_id,
                                PlayoutEventKind.HIDE)
        if not done.triggered:
            done.succeed()

    def disable_stream(self, stream_id: str) -> None:
        """User disabled one media of the presentation (§5).

        A running continuous stream stops playing (its buffer stops
        draining; the server is told separately to stop sending); a
        visible discrete element is hidden; the presentation as a
        whole still completes.
        """
        known = {s.stream_id for s in self.scenario.streams}
        if stream_id not in known:
            raise KeyError(f"no stream {stream_id!r} in this presentation")
        self._disabled.add(stream_id)
        playout = self.playouts.get(stream_id)
        if playout is not None:
            playout.cancel("disabled")
        done = self._discrete_done.get(stream_id)
        if done is not None:
            if stream_id in self.renderer.visible_now():
                self.renderer.hide(stream_id, self.sim.now)
                self.log.record(self.sim.now, stream_id,
                                PlayoutEventKind.HIDE)
            if not done.triggered:
                done.succeed()

    def pause(self) -> None:
        self.gate.pause()

    def resume(self) -> None:
        self.gate.resume()

    def interrupt(self) -> None:
        """Hyperlink activated: stop the running presentation."""
        self._interrupted = True
        for playout in self.playouts.values():
            playout.alive = False
        self.renderer.finish(self.sim.now)

    # -- results ------------------------------------------------------------
    def startup_latency_s(self) -> float | None:
        """Time from scheduler start to the first presented event."""
        first_shown_s = self.log.tally().first_shown_s
        if self.presentation_start is None or first_shown_s is None:
            return None
        return first_shown_s - self._start_called_at

    def skew_series(self):
        return {g: c.series for g, c in self.skew_controllers.items()}
