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
"""

import numpy as np
import pytest

from repro.client import MediaBuffer, PlayoutEventLog, SkewController
from repro.client.metrics import PlayoutEvent, PlayoutEventKind
from repro.client.monitor import BufferAction, BufferMonitor
from repro.client.playout import PauseGate, PlayoutProcess
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
from repro.model.sync import PlayoutEntry
from repro.net import Network
from repro.server import MediaServer
from repro.server.media_server import StreamHandler, StreamOrigin

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
    ctrl = SkewController("g", master_id="a")
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
    assert pump.finished.processed and pump.finished.value == pump.frames_sent
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
