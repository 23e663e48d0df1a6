"""Concurrent playout processes — one per media stream.

The paper's playout algorithm (§3.1):

    for i = 0 to number of structures E_i
        create a playout thread
        wait until current relative time = t_i
        play incoming stream S_i in nominal rate for duration d_i

Each tick the playout consults the buffer monitor (underflow →
duplicate, overflow → drop) and, for sync-group slaves, the skew
controller; a missing frame at its deadline is a *gap* (an intramedia
synchronization failure), after which media time advances at nominal
rate so late frames are discarded as stale.

The "thread" is a chain of ``call_later`` callbacks, not a generator
process: a tick per frame is most of what a client does, so it costs one
bare heap entry and one call. Each tick pushes the next where the loop
would wait; stopping clears ``alive``, which the pending tick checks.
"""

from __future__ import annotations

from repro.client.buffers import MediaBuffer
from repro.client.metrics import PlayoutEvent, PlayoutEventKind, PlayoutEventLog
from repro.client.monitor import BufferAction, BufferMonitor, BufferState
from repro.client.skew import SkewController
from repro.des import Event, Simulator
from repro.media.types import Frame
from repro.model.sync import PlayoutEntry

__all__ = ["PauseGate", "PlayoutProcess"]


class PauseGate:
    """Shared pause/resume switch for all playout processes."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: read on every tick of every clock the gate holds
        self.paused = False
        self._resume_event: Event | None = None

    def pause(self) -> None:
        if not self.paused:
            self.paused = True
            self._resume_event = self.sim.event()

    def resume(self) -> None:
        if self.paused:
            self.paused = False
            event, self._resume_event = self._resume_event, None
            assert event is not None
            event.succeed()

    def wait(self):
        """The event that triggers on resume (None if running)."""
        return self._resume_event


class PlayoutProcess:
    """Deadline-driven playout of one continuous stream.

    ``finished`` succeeds with ``played_s`` when the stream played out,
    starved past ``max_consecutive_gaps`` or was cancelled; the hyperlink
    interrupt (the scheduler clears ``alive``) leaves it pending.
    """

    def __init__(
        self,
        sim: Simulator,
        entry: PlayoutEntry,
        buffer: MediaBuffer,
        log: PlayoutEventLog,
        nominal_frame_interval_s: float,
        monitor: BufferMonitor | None = None,
        skew: SkewController | None = None,
        gate: PauseGate | None = None,
        start_offset_s: float = 0.0,
        max_consecutive_gaps: int | None = None,
        gap_policy: str = "advance",
    ) -> None:
        """``gap_policy`` selects what a missed deadline does:

        * ``"advance"`` — media time moves on at nominal rate; frames
          arriving late are stale and get discarded (deadline-driven,
          keeps total playout time nominal);
        * ``"stall"`` — media time holds until data arrives, so a
          starved stream falls behind its sync group and the skew
          controller's drop/duplicate actions (the paper's short-term
          recovery) are what re-locks the pair.
        """
        if nominal_frame_interval_s <= 0:
            raise ValueError("nominal_frame_interval_s must be positive")
        if gap_policy not in ("advance", "stall"):
            raise ValueError(f"unknown gap_policy {gap_policy!r}")
        if entry.duration is None:
            raise ValueError(
                f"stream {entry.stream_id}: playout requires a known duration"
            )
        self.sim = sim
        self.entry = entry
        self.buffer = buffer
        self.log = log
        self.interval_s = nominal_frame_interval_s
        self.monitor = monitor
        self.skew = skew
        self.gate = gate
        self.start_offset_s = start_offset_s
        self.max_consecutive_gaps = max_consecutive_gaps
        self.gap_policy = gap_policy
        self.played_s = 0.0  # presented media time within the stream
        self.finished = sim.event()
        self._is_slave = (
            skew is not None and entry.sync_group is not None
            and not entry.is_sync_master
        )
        self.alive = True
        self._next_ticks = 0
        self._consecutive_gaps = 0
        # on its own heap entry: after whatever else happens this instant
        sim.call_later(0.0, self._begin)

    # -- helpers ----------------------------------------------------------
    def _record(self, kind: PlayoutEventKind,
                frame_seq: int | None = None, reason: str = "") -> None:
        self.log.record(self.sim.now, self.entry.stream_id, kind,
                        media_time_s=self.played_s, frame_seq=frame_seq,
                        reason=reason)

    def _report_position(self, active: bool = True) -> None:
        if self.skew is not None:
            self.skew.report_position(self.entry.stream_id, self.played_s,
                                      active=active)

    def _pop_fresh(self) -> Frame | None:
        """Pop the next non-stale frame; stale frames are discarded."""
        while (head := self.buffer.peek()) is not None:
            if head.media_time >= self._next_ticks:
                return self.buffer.pop()
            self._record(PlayoutEventKind.DROP, reason="stale",
                         frame_seq=self.buffer.drop_head().seq)
        return None

    def _skip_frames(self, n: int) -> None:
        """Media time moves on ``n`` nominal intervals with nothing shown."""
        self._next_ticks += n * int(round(
            self.interval_s * self.buffer.clock_rate))
        self.played_s = min(self.entry.duration,
                            self.played_s + n * self.interval_s)

    # -- the playout clock --------------------------------------------------
    def _begin(self) -> None:
        if self.start_offset_s > 0:
            self.sim.call_later(self.start_offset_s, self._start)
        else:
            self._start()

    def _start(self) -> None:
        if self.alive:
            self._record(PlayoutEventKind.START)
            self._report_position()
            self._tick()

    def _tick(self, resumed: Event | None = None) -> None:
        """Present what is due and push the next tick. ``resumed`` (the
        gate's event) marks a pause ending: the tick it held back runs
        without a second look at the gate or the stream's end."""
        if not self.alive:
            return
        sim = self.sim
        duration = self.entry.duration
        if resumed is not None:
            self._record(PlayoutEventKind.RESUME)
            self._report_position(active=True)
        elif self.played_s >= duration - 1e-9:
            self._stop()
            return
        elif self.gate is not None and self.gate.paused:
            self._record(PlayoutEventKind.PAUSE)
            self._report_position(active=False)
            self.gate.wait().callbacks.append(self._tick)
            return

        buffer = self.buffer
        frames = buffer._frames
        action = BufferAction.NONE
        monitor = self.monitor
        # A NORMAL buffer that stays NORMAL is the monitor's steady
        # state: no transition, no recommendation, nothing to reset. The
        # zone test is ``check``'s, on the same float expression; the
        # monitor is asked only when the zone may change.
        if monitor is not None and not (
                monitor._state is BufferState.NORMAL
                and monitor.low_watermark
                <= buffer._ticks_buffered / buffer.clock_rate
                / buffer.time_window_s
                <= monitor.high_watermark):
            action = monitor.check(sim._now)
            # Near the end of the stream a draining buffer is
            # expected, not an anomaly: don't stretch the tail.
            if (action is BufferAction.DUPLICATE
                    and duration - self.played_s
                    <= buffer.time_window_s):
                action = BufferAction.NONE
        if self._is_slave:
            decision = self.skew.decide(
                self.entry.stream_id, sim._now, self.interval_s
            )
            if decision.action == "duplicate":
                action = BufferAction.DUPLICATE
            elif decision.action == "drop":
                # Catching up overrides any monitor stretching —
                # the two mechanisms must not fight.
                action = BufferAction.NONE
                dropped = 0
                for _ in range(decision.drop_count):
                    # Never shed the last buffered frame: playing
                    # it snaps the position to its timestamp, which
                    # realigns faster than a drop credit of one
                    # interval. When delivery is arrival-limited
                    # (one frame per tick, e.g. a failover resume),
                    # shedding the head would eat every fresh frame
                    # while the slave gains nothing on the master.
                    if len(frames) <= 1:
                        break
                    shed = buffer.drop_head()
                    if shed is None:
                        break
                    dropped += 1
                    self._record(PlayoutEventKind.DROP,
                                 frame_seq=shed.seq, reason="skew")
                self._skip_frames(dropped)
                self._report_position()
        elif action is BufferAction.DROP:
            # Overflow: shed one buffered frame this tick.
            shed = buffer.drop_head()
            if shed is not None:
                self._record(PlayoutEventKind.DROP,
                             frame_seq=shed.seq, reason="overflow")
                self._skip_frames(1)

        if action is BufferAction.DUPLICATE:
            # Hold position: replay the previous frame interval.
            self._record(PlayoutEventKind.DUPLICATE)
            self._report_position()
            sim.call_later(self.interval_s, self._tick)
            return

        # A fresh head is popped here (``MediaBuffer.pop``, inline); a
        # stale head or an empty buffer goes the long way
        if frames and frames[0].media_time >= self._next_ticks:
            frame = frames.popleft()
            buffer._ticks_buffered -= frame.duration
        else:
            frame = self._pop_fresh()
        if frame is None:
            self._record(PlayoutEventKind.GAP)
            if not self._consecutive_gaps:
                # the first gap since a frame was presented (or since the
                # start): one rebuffering episode
                buffer.stats.underflow_events += 1
            self._consecutive_gaps += 1
            if (self.max_consecutive_gaps is not None
                    and self._consecutive_gaps > self.max_consecutive_gaps):
                self._stop()
                return
            advance = self.gap_policy == "advance"
            if not advance and self._is_slave:
                # A slave already lagging its master must not hold
                # position on missing data — skip the gap so the
                # skew stays bounded (late frames become stale and
                # are dropped, the paper's "drop frames" action).
                skew = self.skew.skew_of(self.entry.stream_id)
                if skew is not None and skew < -self.skew.threshold_s:
                    advance = True
            if advance:
                self._skip_frames(1)
            self._report_position()
            sim.call_later(self.interval_s, self._tick)
            return
        # A frame presented, the one branch nearly every tick takes:
        # the log row and the skew report written here. Only a detail
        # tracer sees a FRAME event, so only then does the log's
        # ``record`` run; a control-tier ring records none.
        self._consecutive_gaps = 0
        clock = buffer.clock_rate
        stream_id = self.entry.stream_id
        log = self.log
        if sim._tracing_detail:
            log.record(sim._now, stream_id, PlayoutEventKind.FRAME,
                       self.played_s, frame.grade, frame.seq)
        else:
            log.events.append(tuple.__new__(  # PlayoutEvent(...)
                PlayoutEvent, (sim._now, stream_id, PlayoutEventKind.FRAME,
                               self.played_s, frame.grade, frame.seq)))
        self._next_ticks = end_ticks = frame.media_time + frame.duration
        played = end_ticks / clock
        if played > duration:  # min(duration, played)
            played = duration
        self.played_s = played
        skew = self.skew
        if skew is not None:  # SkewController.report_position, inline
            skew._positions[stream_id] = played
            skew._active[stream_id] = True
        sim.call_later(frame.duration / clock, self._tick)

    def _stop(self) -> None:
        """The stream played out (or starved past its gap allowance)."""
        self.alive = False
        self._record(PlayoutEventKind.STOP)
        self._report_position(active=False)
        self.finished.succeed(self.played_s)

    def cancel(self, cause: str = "disabled") -> None:
        """Stop this playout (user disabled the media, §5) and mark it
        finished so the presentation as a whole can still complete
        (``cause`` is for the reader of the call site)."""
        self.alive = False
        self._report_position(active=False)
        if not self.finished.triggered:
            self.finished.succeed(self.played_s)
