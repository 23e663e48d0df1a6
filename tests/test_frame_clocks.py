"""The two per-frame clocks against the generator loops they replaced.

``PlayoutProcess`` and ``StreamHandler`` are chains of ``call_later``
callbacks. Until ``ad1d5ae`` each was one generator process with a
``Timeout`` per frame; those two loops live on here, verbatim, as the
reference. On one seed the callback clocks must tell the same story as
the generators in every situation a clock can be in: the playout the
same ``PlayoutEventLog.events`` and ``played_s``, the pump the same
``(send instant, frame seq, size_bytes, grade)`` list.

The records the clocks build (``Frame``, ``PlayoutEvent``) became named
tuples and ``FrameSource`` stopped re-deriving its grade per frame at
the same time; their contracts are held at the bottom.

Later the callback playout stopped calling its helpers on the played
frame's path: an arrival through ``PresentationScheduler.frame_sink``
pushes into the buffer itself, and a tick skips the monitor in its
steady state, pops a fresh head, writes the log row and the skew report
itself. The generator loop still calls ``MediaBuffer.push`` / ``pop`` /
``peek``, ``BufferMonitor.check`` every tick,
``SkewController.report_position`` and, through
``ReferenceSkewController``, the old ``decide``, so it is the referee
for those too:
on generated arrival schedules the two tell the same story and leave the
same buffer, monitor and skew-controller books.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import (
    MediaBuffer,
    PlayoutEventLog,
    PresentationScheduler,
    SkewController,
    StreamBinding,
)
from repro.client.metrics import PlayoutEvent, PlayoutEventKind
from repro.client.monitor import BufferAction, BufferMonitor, BufferState
from repro.client.playout import PauseGate, PlayoutProcess
from repro.client.skew import MAX_DROPS_PER_TICK, SkewDecision
from repro.core.experiments import av_markup
from repro.des import RngRegistry, Simulator
from repro.media import (
    ContinuousMediaObject,
    MediaStore,
    MediaType,
    default_registry,
)
from repro.media.encodings import SUSPENDED
from repro.media.traces import (
    FRAME_SIZE_WEIGHTS,
    GOP_PATTERN,
    FrameSource,
)
from repro.media.types import Frame, FrameKind
from repro.model import PresentationScenario
from repro.model.sync import PlayoutEntry
from repro.net import Network
from repro.server import MediaServer
from repro.server.media_server import StreamHandler, StreamOrigin
from tests.helpers import skew_sample

CLOCK, TICKS, INTERVAL = 90_000, 3600, 0.04
A_CLOCK, A_TICKS, A_INTERVAL = 8000, 160, 0.02


# ---------------------------------------------------------------------------
# The references: the loops of ad1d5ae, unchanged but for their class names
# ---------------------------------------------------------------------------

class GeneratorPlayout:
    """``client/playout.py::PlayoutProcess`` as ``ad1d5ae`` had it."""

    def __init__(self, sim, entry, buffer, log, nominal_frame_interval_s,
                 monitor=None, skew=None, gate=None, start_offset_s=0.0,
                 max_consecutive_gaps=None, gap_policy="advance"):
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
        self.played_s = 0.0
        self.finished = sim.event()
        self._is_slave = (
            skew is not None and entry.sync_group is not None
            and not entry.is_sync_master
        )
        self.process = sim.process(self._run(),
                                   name=f"playout:{entry.stream_id}")

    def _record(self, kind, grade=0, frame_seq=None, reason=""):
        self.log.record(self.sim.now, self.entry.stream_id, kind,
                        media_time_s=self.played_s, grade=grade,
                        frame_seq=frame_seq, reason=reason)

    def _report_position(self, active=True):
        if self.skew is not None:
            self.skew.report_position(self.entry.stream_id, self.played_s,
                                      active=active)

    def _pop_fresh(self, next_ticks):
        while True:
            head = self.buffer.peek()
            if head is None:
                return None
            if head.media_time < next_ticks:
                stale = self.buffer.drop_head()
                self._record(PlayoutEventKind.DROP,
                             frame_seq=stale.seq if stale else None,
                             reason="stale")
                continue
            return self.buffer.pop()

    def _run(self):
        sim = self.sim
        if self.start_offset_s > 0:
            yield sim.timeout(self.start_offset_s)
        duration = self.entry.duration
        assert duration is not None
        clock = self.buffer.clock_rate
        self._record(PlayoutEventKind.START)
        self._report_position()
        next_ticks = 0
        consecutive_gaps = 0
        while self.played_s < duration - 1e-9:
            if self.gate is not None and self.gate.paused:
                self._record(PlayoutEventKind.PAUSE)
                self._report_position(active=False)
                yield self.gate.wait()
                self._record(PlayoutEventKind.RESUME)
                self._report_position(active=True)

            action = BufferAction.NONE
            if self.monitor is not None:
                action = self.monitor.check(sim.now)
                if (action is BufferAction.DUPLICATE
                        and duration - self.played_s
                        <= self.buffer.time_window_s):
                    action = BufferAction.NONE
            if self._is_slave:
                decision = self.skew.decide(
                    self.entry.stream_id, sim.now, self.interval_s
                )
                if decision.action == "duplicate":
                    action = BufferAction.DUPLICATE
                elif decision.action == "drop":
                    action = BufferAction.NONE
                    dropped = 0
                    for _ in range(decision.drop_count):
                        if len(self.buffer) <= 1:
                            break
                        shed = self.buffer.drop_head()
                        if shed is None:
                            break
                        dropped += 1
                        self._record(PlayoutEventKind.DROP,
                                     frame_seq=shed.seq, reason="skew")
                    next_ticks += dropped * int(round(self.interval_s * clock))
                    self.played_s = min(
                        duration, self.played_s + dropped * self.interval_s
                    )
                    self._report_position()
            elif action is BufferAction.DROP:
                shed = self.buffer.drop_head()
                if shed is not None:
                    self._record(PlayoutEventKind.DROP,
                                 frame_seq=shed.seq, reason="overflow")
                    next_ticks += int(round(self.interval_s * clock))
                    self.played_s = min(duration,
                                        self.played_s + self.interval_s)

            if action is BufferAction.DUPLICATE:
                self._record(PlayoutEventKind.DUPLICATE)
                self._report_position()
                yield sim.timeout(self.interval_s)
                continue

            frame = self._pop_fresh(next_ticks)
            if frame is None:
                self._record(PlayoutEventKind.GAP)
                consecutive_gaps += 1
                if (self.max_consecutive_gaps is not None
                        and consecutive_gaps > self.max_consecutive_gaps):
                    break
                advance = self.gap_policy == "advance"
                if not advance and self._is_slave:
                    skew = self.skew.skew_of(self.entry.stream_id)
                    if skew is not None and skew < -self.skew.threshold_s:
                        advance = True
                if advance:
                    self.played_s = min(duration,
                                        self.played_s + self.interval_s)
                    next_ticks += int(round(self.interval_s * clock))
                self._report_position()
                yield sim.timeout(self.interval_s)
                continue
            consecutive_gaps = 0
            self._record(PlayoutEventKind.FRAME, grade=frame.grade,
                         frame_seq=frame.seq)
            frame_time = frame.duration / clock
            self.played_s = min(duration,
                                (frame.end_time) / clock)
            next_ticks = frame.end_time
            self._report_position()
            yield sim.timeout(frame_time)
        self._record(PlayoutEventKind.STOP)
        self._report_position(active=False)
        if not self.finished.triggered:
            self.finished.succeed(self.played_s)

    def cancel(self, cause="disabled"):
        if self.process.is_alive:
            self.process.interrupt(cause)
        self._report_position(active=False)
        if not self.finished.triggered:
            self.finished.succeed(self.played_s)


class ReferenceSkewController(SkewController):
    """``SkewController.decide`` as it was before ``skew_of``,
    ``master_position`` and ``SkewSeries.sample`` went inline and "play"
    and "duplicate" became shared constants (its trace emits aside): the
    generator playout's controller, so the callback playout's is checked
    against it."""

    def decide(self, stream_id, now, frame_interval_s):
        if stream_id == self.master_id:
            raise ValueError("the sync master does not take skew decisions")
        skew = self.skew_of(stream_id)
        if skew is None:
            return SkewDecision("play")
        skew_sample(self.series, now, skew)
        self.stats.decisions += 1
        if not self.enabled:
            return SkewDecision("play")
        if skew > self.threshold_s:
            self.stats.duplicates += 1
            self.stats.corrections += 1
            return SkewDecision("duplicate")
        if skew < -self.threshold_s and frame_interval_s > 0:
            behind_frames = int(-skew / frame_interval_s)
            n = max(1, min(MAX_DROPS_PER_TICK, behind_frames))
            self.stats.drops += n
            self.stats.corrections += 1
            return SkewDecision("drop", drop_count=n)
        return SkewDecision("play")


def skew_controller(cls, *args, **kw):
    """The skew controller a playout of ``cls`` is run with."""
    if cls is GeneratorPlayout:
        return ReferenceSkewController(*args, **kw)
    return SkewController(*args, **kw)


class GeneratorPump(StreamHandler):
    """``StreamHandler`` with the clock ``ad1d5ae`` gave it: legs, relay
    and release are today's, ``start`` / ``_run`` / ``stop`` the old."""

    def start(self):
        if len(self.legs) == 1:
            (leg,) = self.legs.values()
            self.gate = self.ms.gate_for(leg.origin.session_id)
        if self.leg_node != self.node_id:
            self._relay_port = self._leg_host.ports.allocate("media")
            self._leg_host.bind(self._relay_port, self._on_carrier)
        self.process = self.sim.process(self._run(), name=self.name)

    def _run(self):
        sim = self.sim
        if self.send_offset_s > 0:
            yield sim.timeout(self.send_offset_s)
        while self.source.media_time_s < self.duration_s - 1e-9:
            if self.gate is not None and self.gate.paused:
                yield self.gate.wait()
            interval = self.source.frame_interval_s
            frame = self.source.next_frame()
            if frame is None:
                self.suspended_intervals += 1
            else:
                if self._relay_port is None:
                    for leg in self._each_leg:
                        leg.sender.send_frame(frame)
                else:
                    self._send_carrier(frame)
                self.frames_sent += 1
            yield sim.timeout(interval)
        self.finished.succeed(self.frames_sent)
        self._release()

    def stop(self):
        if self.process is not None and self.process.is_alive:
            self.process.interrupt("session closed")
        self._release()


def interrupt(playout):
    """The hyperlink interrupt, as the scheduler delivers it."""
    if isinstance(playout, GeneratorPlayout):
        if playout.process.is_alive:
            playout.process.interrupt("hyperlink")
    else:
        playout.alive = False


# ---------------------------------------------------------------------------
# Playout
# ---------------------------------------------------------------------------

def vframe(seq):
    return Frame("v", seq, seq * TICKS, TICKS, 1000, FrameKind.P, seq % 3)


def aframe(seq):
    return Frame("a", seq, seq * A_TICKS, A_TICKS, 160, FrameKind.SAMPLE)


def entry(sid, duration, group=None, master=False):
    media = MediaType.VIDEO if sid == "v" else MediaType.AUDIO
    return PlayoutEntry(stream_id=sid, media_type=media, source="s",
                        start_time=0.0, duration=duration, sync_group=group,
                        is_sync_master=master)


class Stage:
    """One simulator, one log, a video buffer; what a scenario returns."""

    def __init__(self, cls):
        self.cls = cls
        self.sim = Simulator()
        self.log = PlayoutEventLog()
        self.buf = MediaBuffer("v", CLOCK, time_window_s=0.4,
                               capacity_s=100.0)
        self.playouts = []

    def feed(self, at, seqs, buf=None, make=vframe):
        """Frames ``seqs`` arrive at ``at`` (0: before anything runs)."""
        buf = self.buf if buf is None else buf
        for seq in seqs:
            if at == 0:
                buf.push(make(seq))
            else:
                self.sim.call_later(at, buf.push, make(seq))

    def play(self, duration=1.0, **kw):
        playout = self.cls(self.sim, entry("v", duration), self.buf,
                           self.log, INTERVAL, **kw)
        self.playouts.append(playout)
        return playout

    def story(self, until=None):
        self.sim.run(until=until)
        return (list(self.log.events),
                [(p.played_s, p.finished.triggered, p.finished.value)
                 for p in self.playouts])


def clean(stage):
    stage.feed(0, range(25))
    stage.play()
    return stage.story()


def start_offset(stage):
    stage.feed(0, range(5))
    stage.play(duration=0.2, start_offset_s=2.0)
    return stage.story()


def _sync_pair(stage, duration, **slave_kw):
    """Audio master fully buffered beside the stage's video slave."""
    ctrl = skew_controller(stage.cls, "g", master_id="a")
    buf_a = MediaBuffer("a", A_CLOCK, time_window_s=0.4, capacity_s=100.0)
    stage.feed(0, range(int(duration / A_INTERVAL)), buf_a, aframe)
    stage.playouts.append(stage.cls(
        stage.sim, entry("a", duration, "g", master=True), buf_a, stage.log,
        A_INTERVAL, skew=ctrl))
    stage.playouts.append(stage.cls(
        stage.sim, entry("v", duration, "g"), stage.buf, stage.log,
        INTERVAL, skew=ctrl, gap_policy="stall", **slave_kw))
    return ctrl


def starved_slave(stage):
    """Ten frames, then nothing: the slave holds, lags, skips, and gives
    up through the ``max_consecutive_gaps`` break."""
    _sync_pair(stage, 3.0, max_consecutive_gaps=30)
    stage.feed(0, range(10))
    events, ends = stage.story()
    gaps = [e for e in events if e.kind is PlayoutEventKind.GAP]
    assert len(gaps) == 31
    assert ends[1][0] < 3.0 and ends[1][1]  # stopped short, and finished
    return events, ends


def skew_drop(stage):
    """The slave's frames arrive a second late, all at once: stale ones
    go at the pop, and the controller sheds what keeps it behind."""
    ctrl = _sync_pair(stage, 3.0)
    stage.feed(0, range(5))
    stage.feed(1.0, range(5, 75))
    stage.buf.push(vframe(0))  # a duplicate of the head: stale at once
    events, ends = stage.story()
    assert ctrl.stats.drops > 0 and ctrl.stats.duplicates == 0
    return events, ends, list(ctrl.series.skews)


def monitor_duplicate_and_overflow(stage):
    """Two frames in a 0.4 s window is LOW (stretch, three at most in a
    row); thirty arriving at once is HIGH (shed one a tick)."""
    monitor = BufferMonitor(stage.buf)
    stage.feed(0, range(2))
    stage.feed(0.5, range(2, 32))
    stage.feed(1.0, range(32, 50))
    stage.play(duration=2.0, monitor=monitor)
    events, ends = stage.story()
    assert monitor.stats.duplicate_recommendations >= 3
    assert monitor.stats.drop_recommendations > 0
    return events, ends, list(monitor.stats.state_trace)


def _paused(stage, pause_at, resume_at, **kw):
    gate = PauseGate(stage.sim)
    stage.feed(0, range(25))
    playout = stage.play(gate=gate, **kw)
    stage.sim.call_later(pause_at, gate.pause)
    if resume_at is not None:
        stage.sim.call_later(resume_at, gate.resume)
    return playout


def pause_mid_stream(stage):
    _paused(stage, 0.21, 5.0)
    events, ends = stage.story()
    kinds = [e.kind for e in events]
    assert kinds.count(PlayoutEventKind.PAUSE) == 1
    assert kinds.count(PlayoutEventKind.RESUME) == 1
    return events, ends


def pause_on_a_tick(stage):
    """Pause and resume land on tick instants (equal-time ties)."""
    _paused(stage, 0.2, 0.6)
    return stage.story()


def pause_during_offset(stage):
    _paused(stage, 0.5, 3.0, start_offset_s=1.0)
    events, ends = stage.story()
    assert [e.kind for e in events[:3]] == [
        PlayoutEventKind.START, PlayoutEventKind.PAUSE,
        PlayoutEventKind.RESUME]
    return events, ends


def _stopped(stage, how, at, **kw):
    stage.feed(0, range(25))
    playout = stage.play(**kw)
    stage.sim.call_later(at, how, playout)
    events, ends = stage.story()
    # nothing is recorded after the stop
    assert all(e.time <= at for e in events)
    return events, ends


def cancel_before(stage):
    return _stopped(stage, stage.cls.cancel, 0.5, start_offset_s=1.0)


def cancel_during(stage):
    return _stopped(stage, stage.cls.cancel, 0.33)


def cancel_on_a_tick(stage):
    return _stopped(stage, stage.cls.cancel, 0.4)


def cancel_after(stage):
    return _stopped(stage, stage.cls.cancel, 1.5)


def cancel_while_paused(stage):
    playout = _paused(stage, 0.21, 2.0)
    stage.sim.call_later(1.0, playout.cancel)
    return stage.story()


def interrupt_before(stage):
    return _stopped(stage, interrupt, 0.5, start_offset_s=1.0)


def interrupt_during(stage):
    events, ends = _stopped(stage, interrupt, 0.33)
    assert ends == [(pytest.approx(0.36), False, None)]  # abandoned
    return events, ends


def interrupt_after(stage):
    return _stopped(stage, interrupt, 1.5)


def interrupt_then_cancel(stage):
    stage.feed(0, range(25))
    playout = stage.play()
    stage.sim.call_later(0.33, interrupt, playout)
    stage.sim.call_later(0.5, playout.cancel)
    return stage.story()


PLAYOUT_SCENARIOS = [
    clean, start_offset, starved_slave, skew_drop,
    monitor_duplicate_and_overflow, pause_mid_stream, pause_on_a_tick,
    pause_during_offset, cancel_before, cancel_during, cancel_on_a_tick,
    cancel_after, cancel_while_paused, interrupt_before, interrupt_during,
    interrupt_after, interrupt_then_cancel,
]


@pytest.mark.parametrize("scenario", PLAYOUT_SCENARIOS,
                         ids=lambda s: s.__name__)
def test_callback_playout_tells_the_generators_story(scenario):
    reference = scenario(Stage(GeneratorPlayout))
    # stopped during the start offset, a playout records nothing at all
    assert reference[0] or scenario.__name__.endswith("_before")
    assert scenario(Stage(PlayoutProcess)) == reference


def test_a_playout_is_no_process():
    stage = Stage(PlayoutProcess)
    playout = stage.play()
    assert playout.alive and not hasattr(playout, "process")
    stage.feed(0, range(25))
    stage.story()
    assert not playout.alive and playout.finished.value == 1.0


# ---------------------------------------------------------------------------
# Generated arrivals: the buffer, monitor and skew books, inline or not
# ---------------------------------------------------------------------------

#: arrivals, the pause and the resume land on a 10 ms grid, which the
#: 20 ms audio and 40 ms video ticks share: equal-time ties are common
SLOT = 0.01


@st.composite
def _schedule(draw, n, step):
    """Arrival slots of frames ``0..n-1`` sent every ``step`` slots. Each
    frame is on time, late or lost; on a FIFO path a late frame holds
    back the ones behind it, which then arrive as a burst; and a few
    frames are sent again at any time, stale when they arrive late."""
    fifo = draw(st.booleans())
    arrivals, last = [], 0
    for seq in range(n):
        delay = draw(st.sampled_from((0, 0, 0, 1, 3, 8, 20, 45, None)))
        if delay is None:
            continue
        slot = seq * step + delay
        if fifo:
            slot = last = max(last, slot)
        arrivals.append((slot, seq))
    arrivals += draw(st.lists(st.tuples(st.integers(0, n * step + 40),
                                        st.integers(0, n - 1)), max_size=4))
    return arrivals


@st.composite
def _cases(draw):
    duration = draw(st.sampled_from((0.4, 0.8, 1.2)))
    window = draw(st.sampled_from((0.12, 0.2, 0.4)))
    pair = draw(st.booleans())
    gap_policy = draw(st.sampled_from(("stall", "advance"))) if pair \
        else "advance"
    pause = draw(st.none() | st.integers(0, round(duration / SLOT)))
    return dict(
        duration=duration, window=window,
        # 1.0: a buffer that overflows as soon as it holds its window
        capacity=window * draw(st.sampled_from((1.0, 1.25, 2.0, 100.0))),
        watermarks=draw(st.none() | st.tuples(
            st.sampled_from((0.1, 0.25, 0.5)),
            st.sampled_from((0.75, 1.0, 1.5)))),
        pair=pair,
        gap_policy=gap_policy,
        # a stalling slave whose master has ended waits for data that
        # never comes: the scheduler bounds it, and so does the case
        max_gaps=draw(st.integers(1, 12) if gap_policy == "stall"
                      else st.none() | st.integers(1, 12)),
        start_offset=draw(st.sampled_from((0.0, 0.05, 0.2))),
        pause=pause,
        resume=None if pause is None
        else draw(st.none() | st.integers(pause, pause + 40)),
        video=draw(_schedule(int(duration / INTERVAL), 4)),
        audio=draw(_schedule(int(duration / A_INTERVAL), 2)) if pair else [],
    )


def _sinks(sim, buffers):
    """``PresentationScheduler.frame_sink`` of each stream, over the
    case's buffers: the scheduler of the standard A/V document with its
    own buffers swapped out."""
    scenario = PresentationScenario.from_markup(av_markup(1.0))
    sched = PresentationScheduler(sim, scenario, {
        "A": StreamBinding("A", A_CLOCK, A_INTERVAL),
        "V": StreamBinding("V", CLOCK, INTERVAL)})
    sched.buffers.update(A=buffers["a"], V=buffers["v"])
    return {"a": sched.frame_sink("A"), "v": sched.frame_sink("V")}


def _generated(cls, case):
    """One run of ``cls`` on ``case``: the story and every book the
    clock keeps — buffer, monitor and skew-controller stats and the skew
    series. The reference pushes with ``MediaBuffer.push``, the callback
    clock is fed by the scheduler's frame sink."""
    sim = Simulator()
    log = PlayoutEventLog()
    buffers = {sid: MediaBuffer(sid, clock, time_window_s=case["window"],
                                capacity_s=case["capacity"])
               for sid, clock in (("a", A_CLOCK), ("v", CLOCK))}
    if cls is GeneratorPlayout:
        sinks = {sid: lambda frame, _at, buf=buf: buf.push(frame)
                 for sid, buf in buffers.items()}
    else:
        sinks = _sinks(sim, buffers)
    for sid, make in (("a", aframe), ("v", vframe)):
        for slot, seq in case["audio" if sid == "a" else "video"]:
            sim.call_later(slot * SLOT, sinks[sid], make(seq), slot * SLOT)
    monitors = {}
    if case["watermarks"] is not None:
        monitors = {sid: BufferMonitor(buf) for sid, buf in buffers.items()}
        for monitor in monitors.values():
            monitor.low_watermark, monitor.high_watermark = case["watermarks"]
    gate = PauseGate(sim)
    ctrl = skew_controller(cls, "g", master_id="a") if case["pair"] \
        else None
    group = "g" if case["pair"] else None
    playouts = []
    if case["pair"]:
        playouts.append(cls(
            sim, entry("a", case["duration"], group, master=True),
            buffers["a"], log, A_INTERVAL, monitor=monitors.get("a"),
            skew=ctrl, gate=gate))
    playouts.append(cls(
        sim, entry("v", case["duration"], group), buffers["v"], log,
        INTERVAL, monitor=monitors.get("v"), skew=ctrl, gate=gate,
        start_offset_s=case["start_offset"],
        max_consecutive_gaps=case["max_gaps"],
        gap_policy=case["gap_policy"]))
    if case["pause"] is not None:
        sim.call_later(case["pause"] * SLOT, gate.pause)
        if case["resume"] is not None:
            sim.call_later(case["resume"] * SLOT, gate.resume)
    sim.run()
    return dict(
        story=(list(log.events),
               [(p.played_s, p.finished.triggered, p.finished.value)
                for p in playouts]),
        buffers={sid: buf.stats for sid, buf in buffers.items()},
        monitors={sid: m.stats for sid, m in monitors.items()},
        skew=None if ctrl is None else (
            ctrl.stats, ctrl.series.times, ctrl.series.skews),
    )


def _rebuffers(events, stream_id):
    """Gaps of the stream with a frame presented, or the start, since
    its previous gap: the stalls a viewer saw."""
    count, stalled = 0, False
    for e in events:
        if e.stream_id == stream_id:
            if e.kind is PlayoutEventKind.GAP:
                count += not stalled
                stalled = True
            elif e.kind is PlayoutEventKind.FRAME:
                stalled = False
    return count


def _both_clocks(case):
    """Both clocks on ``case``: the same story and the same books, the
    callback clock's underflow count aside, which the reference never
    kept: it is held to the story's stalls instead. The reference run."""
    new, ref = _generated(PlayoutProcess, case), _generated(GeneratorPlayout,
                                                           case)
    for sid, stats in new["buffers"].items():
        assert stats.underflow_events == _rebuffers(ref["story"][0], sid)
        assert ref["buffers"][sid].underflow_events == 0
        stats.underflow_events = 0
    assert new == ref
    return ref


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_generated_arrivals_tell_the_generators_story(case):
    _both_clocks(case)


#: a buffer that holds no more than its window, every frame on time but
#: one video frame a slot late, a pause
ON_TIME = dict(
    duration=0.8, window=0.12, capacity=0.12, watermarks=(0.1, 0.75),
    pair=True, gap_policy="stall", max_gaps=1, start_offset=0.0,
    pause=35, resume=48,
    video=[(4 * s + (s == 8), s) for s in range(20)],
    audio=[(2 * s, s) for s in range(40)])
#: an audio burst past the capacity, a video batch held back 0.6 s, video
#: frame 1 sent again at 0.3 s, a pause
LATE_BATCH = dict(
    duration=1.2, window=0.2, capacity=0.4, watermarks=(0.25, 1.0),
    pair=True, gap_policy="stall", max_gaps=12, start_offset=0.0,
    pause=90, resume=100,
    audio=[(0, s) for s in range(25)] + [(2 * s, s) for s in range(25, 60)],
    video=[(0, s) for s in range(4)] + [(60, s) for s in range(4, 12)]
    + [(30, 1)] + [(4 * s, s) for s in range(12, 30)])


def test_two_fixed_cases_reach_what_the_generated_ones_are_drawn_for():
    """The generated comparison is not vacuous: between them, two of its
    cases overflow, cross both watermarks, stretch, shed for skew and
    for overflow, replay ahead of the master, gap while stalled, discard
    a re-sent frame and pause, on both clocks alike."""
    runs = {}
    for name, case in (("on_time", ON_TIME), ("late_batch", LATE_BATCH)):
        for policy in ("stall", "advance"):
            case = dict(case, gap_policy=policy)
            runs[name, policy] = _both_clocks(case)

    on_time = runs["on_time", "stall"]
    events, ends = on_time["story"]
    assert ends == [(0.8, True, 0.8)] * 2
    assert [e.kind for e in events].count(PlayoutEventKind.RESUME) == 2
    for sid in "av":
        assert on_time["buffers"][sid].overflow_drops > 0
        monitor = on_time["monitors"][sid]
        assert {state for _, state in monitor.state_trace} == set(BufferState)
        assert monitor.low_entries == monitor.high_entries == 1
        assert monitor.drop_recommendations > 0
    skew_stats = on_time["skew"][0]
    assert skew_stats.drops > 0 and skew_stats.duplicates > 0

    late = runs["late_batch", "stall"]
    events, ends = late["story"]
    video = [e for e in events if e.stream_id == "v"]
    assert [e.kind for e in video].count(PlayoutEventKind.GAP) > 1
    assert any(e.kind is PlayoutEventKind.DROP and e.frame_seq == 1
               for e in video)
    assert late["buffers"]["a"].overflow_drops > 0
    assert late["monitors"]["a"].high_entries > 0
    assert all(m.duplicate_recommendations for m in late["monitors"].values())
    assert late["skew"][0].drops > 0
    assert ends == [(1.2, True, 1.2)] * 2
    assert runs["late_batch", "advance"]["story"] != late["story"]


# ---------------------------------------------------------------------------
# Pump
# ---------------------------------------------------------------------------

class Studio:
    """A media server with one video object, and one pump of ``cls``."""

    def __init__(self, cls, duration_s=2.0, send_offset_s=0.0,
                 floor_grade=99):
        self.sim = sim = Simulator()
        net = Network(sim)
        net.add_node("cli")
        net.add_node("vidsrv")
        net.add_duplex_link("cli", "vidsrv", 10e6, 0.005)
        store = MediaStore(default_registry(), RngRegistry(seed=7))
        store.add(ContinuousMediaObject("/v1.mpg", MediaType.VIDEO, "MPEG",
                                        duration_s=4.0))
        self.ms = MediaServer(sim, net, "vidsrv", "vidsrv", store)
        origin = StreamOrigin(
            session_id="sess-1", stream_id="V1", object_path="/v1.mpg",
            client_node="cli", client_port=5004, duration_s=duration_s,
            floor_grade=floor_grade, allow_suspend=True, ssrc=1, first_seq=0)
        self.pump = pump = cls(self.ms, origin, send_offset_s)
        pump.add_leg(origin)
        self.sent = []
        (leg,) = pump.legs.values()
        leg.sender.send_frame = lambda frame: self.sent.append(
            (sim.now, frame.seq, frame.size_bytes, frame.grade))
        pump.start()

    def at(self, when, fn, *args):
        self.sim.call_later(when, fn, *args)

    def story(self):
        self.sim.run()
        pump = self.pump
        assert not pump.legs and not self.ms.streams  # released
        return self.sent, pump.frames_sent, pump.suspended_intervals


def pump_clean(studio_of):
    studio = studio_of()
    story = studio.story()
    assert len(story[0]) == 50
    return story


def pump_send_offset(studio_of):
    studio = studio_of(send_offset_s=3.0)
    story = studio.story()
    assert story[0][0][0] == 3.0
    return story


def pump_pause_mid_stream(studio_of):
    studio = studio_of()
    studio.at(0.5, studio.ms.pause_session, "sess-1")
    studio.at(4.5, studio.ms.resume_session, "sess-1")
    story = studio.story()
    assert not [t for t, *_ in story[0] if 0.5 < t < 4.5]
    return story


def pump_pause_on_a_tick(studio_of):
    studio = studio_of()
    studio.at(0.4, studio.ms.pause_session, "sess-1")
    studio.at(0.8, studio.ms.resume_session, "sess-1")
    return studio.story()


def pump_pause_during_offset(studio_of):
    studio = studio_of(send_offset_s=1.0)
    studio.at(0.5, studio.ms.pause_session, "sess-1")
    studio.at(2.0, studio.ms.resume_session, "sess-1")
    story = studio.story()
    assert story[0][0][0] == 2.0
    return story


def pump_stop_mid_stream(studio_of):
    studio = studio_of()
    studio.at(0.5, studio.pump.stop)
    story = studio.story()
    assert 0 < story[1] < 50
    return story


def pump_stop_while_paused(studio_of):
    studio = studio_of()
    studio.at(0.5, studio.ms.pause_session, "sess-1")
    studio.at(1.0, studio.pump.stop)
    studio.at(1.5, studio.ms.resume_session, "sess-1")
    story = studio.story()
    assert all(t <= 0.5 for t, *_ in story[0])
    return story


def pump_suspended_and_back(studio_of):
    """Floor 0: one degrade suspends, one upgrade re-enters at the
    ladder's worst rung (half the frame rate), a second goes up one."""
    studio = studio_of(floor_grade=0)
    conv = studio.pump.converter
    studio.at(0.5, conv.degrade, 0.5)
    studio.at(1.0, conv.upgrade, 1.0)
    studio.at(1.5, conv.upgrade, 1.5)
    story = studio.story()
    assert story[2] > 0 and studio.pump.source.grade is not SUSPENDED
    assert {grade for *_, grade in story[0]} == {0, 4, 3}
    return story


PUMP_SCENARIOS = [
    pump_clean, pump_send_offset, pump_pause_mid_stream,
    pump_pause_on_a_tick, pump_pause_during_offset, pump_stop_mid_stream,
    pump_stop_while_paused, pump_suspended_and_back,
]


@pytest.mark.parametrize("scenario", PUMP_SCENARIOS,
                         ids=lambda s: s.__name__)
def test_callback_pump_sends_what_the_generator_sent(scenario):
    studios = {}

    def studio_of(cls):
        def build(**kw):
            studios[cls] = Studio(cls, **kw)
            return studios[cls]
        return build

    reference = scenario(studio_of(GeneratorPump))
    assert reference[0], "the scenario sent nothing"
    assert scenario(studio_of(StreamHandler)) == reference
    old, new = studios[GeneratorPump].pump, studios[StreamHandler].pump
    assert not new.alive and not hasattr(new, "process")
    # one end, natural or stopped: the generator withheld ``finished``
    # from a stopped pump, which is the one difference (and the fix)
    assert new.finished.triggered and new.finished.value == new.frames_sent
    if "stop" not in scenario.__name__:
        assert old.finished.value == new.finished.value


def test_a_pump_finishes_once_however_often_it_is_stopped():
    studio = Studio(StreamHandler)
    pump = studio.pump
    studio.at(0.5, pump.stop)
    studio.at(0.5, pump.stop)
    studio.at(0.7, pump.stop)
    studio.story()
    assert pump.finished.triggered and pump.finished.value == pump.frames_sent
    # natural end, then a late stop
    studio = Studio(StreamHandler)
    studio.story()
    studio.pump.stop()
    assert studio.pump.finished.value == 50
    # never started: nothing to finish, the leg still goes back
    ms = studio.ms
    origin = StreamOrigin("s2", "V2", "/v1.mpg", "cli", 5006, 2.0, 99, True,
                          2, 0)
    idle = StreamHandler(ms, origin)
    idle.add_leg(origin)
    idle.stop()
    assert not idle.finished.triggered and not ms.streams


# ---------------------------------------------------------------------------
# The records, and the source that builds them
# ---------------------------------------------------------------------------

def test_frame_is_an_immutable_record_with_the_old_fields():
    assert Frame._fields == ("stream_id", "seq", "media_time", "duration",
                             "size_bytes", "kind", "grade")
    assert Frame._field_defaults == {"grade": 0}
    frame = Frame("v", 3, 10_800, 3600, 1000, FrameKind.P)
    assert frame == Frame(stream_id="v", seq=3, media_time=10_800,
                          duration=3600, size_bytes=1000, kind=FrameKind.P,
                          grade=0)
    assert frame.end_time == 14_400
    with pytest.raises(AttributeError):
        frame.seq = 4
    with pytest.raises(AttributeError):
        frame.duplicated = True  # no instance dict either
    with pytest.raises(TypeError):
        Frame("v", 3)


def test_playout_event_is_an_immutable_record_with_the_old_fields():
    assert PlayoutEvent._fields == ("time", "stream_id", "kind",
                                    "media_time_s", "grade", "frame_seq")
    assert PlayoutEvent._field_defaults == {
        "media_time_s": 0.0, "grade": 0, "frame_seq": None}
    event = PlayoutEvent(1.5, "v", PlayoutEventKind.GAP)
    assert event == PlayoutEvent(time=1.5, stream_id="v",
                                 kind=PlayoutEventKind.GAP, media_time_s=0.0,
                                 grade=0, frame_seq=None)
    with pytest.raises(AttributeError):
        event.time = 2.0
    log = PlayoutEventLog()
    log.record(0.5, "v", PlayoutEventKind.FRAME, 0.25, 2, 7, reason="x")
    assert log.events == [PlayoutEvent(0.5, "v", PlayoutEventKind.FRAME,
                                       0.25, 2, 7)]


class RecomputingSource:
    """``FrameSource.next_frame`` as ``ad1d5ae`` had it: grade, interval,
    ticks and scale looked up again for every frame."""

    def __init__(self, codec, rng, grade_index):
        self.codec, self.rng, self.grade_index = codec, rng, grade_index
        self.rho, self.sigma = 0.9, 0.12
        self.seq = self.media_time = self.frame_in_gop = 0
        self.log_state = None

    def multiplier(self):
        v = self.sigma**2 / (1.0 - self.rho**2)
        if self.log_state is None:
            self.log_state = float(self.rng.normal(0.0, np.sqrt(v)))
        else:
            self.log_state = self.rho * self.log_state + float(
                self.rng.normal(0.0, self.sigma))
        return float(np.exp(self.log_state - v / 2.0))

    def next_frame(self):
        grade = self.codec.grade(self.grade_index)
        interval = (self.codec.best if grade is SUSPENDED
                    else grade).frame_interval_s
        ticks = int(round(self.codec.clock_rate * interval))
        if grade is SUSPENDED:
            self.media_time += ticks
            return None
        if self.codec.media_type is MediaType.VIDEO:
            kind = GOP_PATTERN[self.frame_in_gop % len(GOP_PATTERN)]
            self.frame_in_gop += 1
            weight = FRAME_SIZE_WEIGHTS[kind]
            mean_weight = (sum(FRAME_SIZE_WEIGHTS[k] for k in GOP_PATTERN)
                           / len(GOP_PATTERN))
            scale = grade.mean_frame_bytes / mean_weight
            size = max(1, int(round(weight * scale * self.multiplier())))
        else:
            kind = FrameKind.SAMPLE
            size = max(1, int(round(grade.mean_frame_bytes)))
        frame = Frame("s", self.seq, self.media_time, ticks, size, kind,
                      self.grade_index)
        self.seq += 1
        self.media_time += ticks
        return frame


@pytest.mark.parametrize("codec_name,grades", [
    ("MPEG", (0, 2, 5, 4)),  # 5 is past the ladder: suspended
    ("PCM-family", (0, 1, 3, 2)),
])
def test_frame_source_sizes_equal_per_frame_recomputation(codec_name, grades):
    codec = default_registry().get(codec_name)
    new = FrameSource("s", codec, RngRegistry(seed=3).stream("t"),
                      grade_index=grades[0])
    old = RecomputingSource(codec, RngRegistry(seed=3).stream("t"),
                            grades[0])
    for grade in grades:
        new.set_grade(grade)
        old.grade_index = grade
        assert new.frame_interval_s == (
            codec.best if codec.grade(grade) is SUSPENDED
            else codec.grade(grade)).frame_interval_s
        for _ in range(2000):
            assert new.next_frame() == old.next_frame()
    assert new.media_time_s == old.media_time / codec.clock_rate
    assert new.next_frame().grade == grades[-1]
