"""Unit tests for playout processes (deadline-driven presentation)."""

import pytest

from repro.client import MediaBuffer, PlayoutEventLog, SkewController
from repro.client.metrics import PlayoutEventKind
from repro.client.playout import PauseGate, PlayoutProcess
from repro.des import Simulator
from repro.media.types import Frame, FrameKind
from repro.media import MediaType
from repro.model.sync import PlayoutEntry

CLOCK = 90_000
TICKS = 3600
INTERVAL = 0.04


def frame(seq):
    return Frame("v", seq=seq, media_time=seq * TICKS, duration=TICKS,
                 size_bytes=1000, kind=FrameKind.P)


def entry(duration=1.0, start=0.0, group=None, master=False, sid="v"):
    return PlayoutEntry(
        stream_id=sid, media_type=MediaType.VIDEO, source="s",
        start_time=start, duration=duration, sync_group=group,
        is_sync_master=master,
    )


def test_smooth_playout_all_frames():
    sim = Simulator()
    buf = MediaBuffer("v", CLOCK, time_window_s=0.4, capacity_s=10.0)
    log = PlayoutEventLog()
    for i in range(25):
        buf.push(frame(i))
    p = PlayoutProcess(sim, entry(duration=1.0), buf, log, INTERVAL)
    sim.run(until=p.finished)
    assert log.count(PlayoutEventKind.FRAME, "v") == 25
    assert log.gap_count("v") == 0
    assert p.played_s == pytest.approx(1.0)
    assert sim.now == pytest.approx(1.0)


def test_start_offset_respected():
    sim = Simulator()
    buf = MediaBuffer("v", CLOCK, time_window_s=0.4, capacity_s=10.0)
    log = PlayoutEventLog()
    for i in range(5):
        buf.push(frame(i))
    p = PlayoutProcess(sim, entry(duration=0.2), buf, log, INTERVAL,
                       start_offset_s=2.0)
    sim.run(until=p.finished)
    assert log.start_time("v") == pytest.approx(2.0)


def test_empty_buffer_produces_gaps():
    sim = Simulator()
    buf = MediaBuffer("v", CLOCK, time_window_s=0.4, capacity_s=10.0)
    log = PlayoutEventLog()
    p = PlayoutProcess(sim, entry(duration=0.4), buf, log, INTERVAL)
    sim.run(until=p.finished)
    assert log.gap_count("v") == 10  # 0.4 s / 0.04 s
    assert log.count(PlayoutEventKind.FRAME, "v") == 0
    assert p.played_s == pytest.approx(0.4)


def test_late_frames_discarded_as_stale():
    sim = Simulator()
    buf = MediaBuffer("v", CLOCK, time_window_s=0.4, capacity_s=10.0)
    log = PlayoutEventLog()

    def feeder():
        # First two frames arrive after their deadlines have passed.
        yield sim.timeout(0.30)
        for i in range(25):
            buf.push(frame(i))

    sim.process(feeder())
    p = PlayoutProcess(sim, entry(duration=1.0), buf, log, INTERVAL)
    sim.run(until=p.finished)
    assert log.gap_count("v") > 0
    assert log.count(PlayoutEventKind.DROP, "v") > 0  # stale discards
    played = log.count(PlayoutEventKind.FRAME, "v")
    assert 0 < played < 25


@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_a_stream_starved_k_times_reports_k_underflows(k):
    """One underflow per run dry, however many ticks it lasts: each frame
    arrives half an interval before it is due, but frames 5j + 1 ..
    5j + 3 never do for j < k."""
    sim = Simulator()
    buf = MediaBuffer("v", CLOCK, time_window_s=0.4, capacity_s=10.0)
    log = PlayoutEventLog()
    missing = {5 * j + d for j in range(k) for d in (1, 2, 3)}
    for i in range(25):
        if i not in missing:
            sim.call_later(max(0.0, (i - 0.5) * INTERVAL), buf.push,
                           frame(i))
    p = PlayoutProcess(sim, entry(duration=1.0), buf, log, INTERVAL)
    sim.run(until=p.finished)
    assert log.gap_count("v") == 3 * k
    assert buf.stats.underflow_events == k


def test_max_consecutive_gaps_aborts():
    sim = Simulator()
    buf = MediaBuffer("v", CLOCK, time_window_s=0.4, capacity_s=10.0)
    log = PlayoutEventLog()
    p = PlayoutProcess(sim, entry(duration=100.0), buf, log, INTERVAL,
                       max_consecutive_gaps=5)
    sim.run(until=p.finished)
    assert sim.now < 1.0
    assert log.count(PlayoutEventKind.STOP, "v") == 1


def test_pause_and_resume():
    sim = Simulator()
    buf = MediaBuffer("v", CLOCK, time_window_s=0.4, capacity_s=10.0)
    log = PlayoutEventLog()
    gate = PauseGate(sim)
    for i in range(25):
        buf.push(frame(i))
    p = PlayoutProcess(sim, entry(duration=1.0), buf, log, INTERVAL, gate=gate)

    def controller():
        yield sim.timeout(0.2)
        gate.pause()
        yield sim.timeout(5.0)
        gate.resume()

    sim.process(controller())
    sim.run(until=p.finished)
    assert log.count(PlayoutEventKind.PAUSE, "v") == 1
    assert log.count(PlayoutEventKind.RESUME, "v") == 1
    assert sim.now == pytest.approx(6.0, abs=0.1)  # 1 s playout + 5 s pause
    assert log.gap_count("v") == 0


def test_interrupt_stops_playout():
    sim = Simulator()
    buf = MediaBuffer("v", CLOCK, time_window_s=0.4, capacity_s=10.0)
    log = PlayoutEventLog()
    for i in range(250):
        buf.push(frame(i))
    p = PlayoutProcess(sim, entry(duration=10.0), buf, log, INTERVAL)

    def clicker():
        yield sim.timeout(1.0)
        p.alive = False  # what PresentationScheduler.interrupt() does

    sim.process(clicker())
    sim.run()
    assert p.played_s < 10.0
    assert not p.finished.triggered  # interrupted, not finished


def test_requires_duration():
    sim = Simulator()
    buf = MediaBuffer("v", CLOCK, time_window_s=0.4)
    with pytest.raises(ValueError, match="duration"):
        PlayoutProcess(sim, entry(duration=None), buf, PlayoutEventLog(),
                       INTERVAL)
    with pytest.raises(ValueError):
        PlayoutProcess(sim, entry(duration=1.0), buf, PlayoutEventLog(), 0.0)


def test_synchronized_pair_stays_locked_with_controller():
    """Slave starved briefly -> skew develops -> controller drops to
    re-lock; without the controller skew persists."""

    def run(enabled):
        sim = Simulator()
        log = PlayoutEventLog()
        ctrl = SkewController("g", master_id="a", enabled=enabled)
        buf_a = MediaBuffer("a", 8000, time_window_s=0.4, capacity_s=100.0)
        buf_v = MediaBuffer("v", CLOCK, time_window_s=0.4, capacity_s=100.0)
        # Master audio fully buffered: 250 frames of 20 ms.
        for i in range(250):
            buf_a.push(Frame("a", seq=i, media_time=i * 160, duration=160,
                             size_bytes=160, kind=FrameKind.SAMPLE))

        def video_feeder():
            # Video delivery stalls for 0.5 s then catches up.
            for i in range(125):
                buf_v.push(frame(i))
                if i == 10:
                    yield sim.timeout(0.5)
                else:
                    yield sim.timeout(0.0)

        sim.process(video_feeder())
        pa = PlayoutProcess(
            sim,
            entry(duration=5.0, group="g", master=True, sid="a"),
            buf_a, log, 0.02, skew=ctrl,
        )
        pv = PlayoutProcess(
            sim,
            entry(duration=5.0, group="g", sid="v"),
            buf_v, log, INTERVAL, skew=ctrl,
            gap_policy="stall", max_consecutive_gaps=1000,
        )
        sim.run(until=pa.finished)
        sim.run(until=pv.finished)
        return ctrl.series

    with_ctrl = run(enabled=True)
    without = run(enabled=False)
    assert with_ctrl.max_abs_s < without.max_abs_s
    assert with_ctrl.fraction_out_of_sync < without.fraction_out_of_sync


def test_tally_is_one_pass_over_the_log_and_follows_it():
    """The tally agrees with the counting helpers, is reused while the
    log stands still and retaken when it grows."""
    log = PlayoutEventLog()
    kinds = PlayoutEventKind
    log.record(1.0, "v", kinds.START)
    log.record(1.0, "v", kinds.FRAME, grade=0, frame_seq=0)
    log.record(1.1, "a", kinds.START)
    log.record(1.2, "v", kinds.GAP)
    log.record(1.3, "v", kinds.FRAME, grade=2, frame_seq=2)
    log.record(1.3, "v", kinds.DROP, frame_seq=1, reason="stale")
    log.record(1.4, "v", kinds.DUPLICATE)
    log.record(0.9, "i", kinds.SHOW)
    tally = log.tally()
    assert log.tally() is tally
    assert log.summary("v") == {
        "frames": log.count(kinds.FRAME, "v"), "gaps": log.gap_count("v"),
        "duplicates": 1, "drops": 1, "gap_ratio": 0.25, "mean_grade": 1.0}
    assert log.summary("nope")["frames"] == 0
    assert tally.first_shown_s == 0.9  # SHOW counts, START does not
    assert tally.first_play_s == 1.0   # START counts, SHOW does not
    assert tally.gap_times == [1.2]
    assert tally.streams["v"].played_seqs == [0, 2]
    assert tally.streams["v"].played_at == [1.0, 1.3]
    log.record(1.5, "v", kinds.GAP)
    assert log.tally() is not tally
    assert log.summary("v")["gaps"] == 2
