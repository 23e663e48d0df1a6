"""Unit tests for the presentation scheduler, renderer and metrics."""

import pytest

from repro.client import PresentationScheduler, StreamBinding, VirtualRenderer
from repro.client.metrics import PlayoutEventKind, PlayoutEventLog
from repro.des import Simulator
from repro.hml import DocumentBuilder
from repro.hml.examples import figure2_document
from repro.media.types import Frame, FrameKind
from repro.model import PresentationScenario
from tests.helpers import grade_trajectory, interval_of

AUDIO_CLOCK = 8_000
VIDEO_CLOCK = 90_000


def bindings_for(scenario):
    out = {}
    for s in scenario.continuous_streams():
        if s.media_type.value == "audio":
            out[s.stream_id] = StreamBinding(s.stream_id, AUDIO_CLOCK, 0.02)
        else:
            out[s.stream_id] = StreamBinding(s.stream_id, VIDEO_CLOCK, 0.04)
    return out


def audio_frame(sid, seq):
    return Frame(sid, seq=seq, media_time=seq * 160, duration=160,
                 size_bytes=160, kind=FrameKind.SAMPLE)


def video_frame(sid, seq):
    return Frame(sid, seq=seq, media_time=seq * 3600, duration=3600,
                 size_bytes=1500, kind=FrameKind.P)


def feed_all(sim, sched, scenario, horizon=30.0):
    """Feed each stream at nominal rate from its scenario start time
    (what the server's flow scheduler arranges in the full system)."""

    def feeder(sid, maker, interval, duration, start):
        if start > 0:
            yield sim.timeout(start)
        n = int(duration / interval) + 1
        for i in range(n):
            sched.buffer_for(sid).push(maker(sid, i))
            yield sim.timeout(interval)

    for s in scenario.continuous_streams():
        dur = s.entry.duration or horizon
        if s.media_type.value == "audio":
            sim.process(feeder(s.stream_id, audio_frame, 0.02, dur,
                               s.entry.start_time))
        else:
            sim.process(feeder(s.stream_id, video_frame, 0.04, dur,
                               s.entry.start_time))


def test_figure2_end_to_end_presentation():
    sim = Simulator()
    scenario = PresentationScenario.from_document(figure2_document())
    sched = PresentationScheduler(sim, scenario, bindings_for(scenario))
    feed_all(sim, sched, scenario)
    for s in scenario.discrete_streams():
        sched.mark_loaded(s.stream_id)
    done = sched.start()
    sim.run(until=done)
    # All five streams presented.
    for sid in ("A1", "A2", "V"):
        assert sched.log.count(PlayoutEventKind.FRAME, sid) > 0
        assert sched.log.count(PlayoutEventKind.STOP, sid) == 1
    for sid in ("I1", "I2"):
        assert sched.log.count(PlayoutEventKind.SHOW, sid) == 1
        assert sched.log.count(PlayoutEventKind.HIDE, sid) == 1


def test_images_shown_at_scenario_times():
    sim = Simulator()
    scenario = PresentationScenario.from_document(figure2_document())
    sched = PresentationScheduler(sim, scenario, bindings_for(scenario),
                                  time_window_s=1.0)
    feed_all(sim, sched, scenario)
    for s in scenario.discrete_streams():
        sched.mark_loaded(s.stream_id)
    done = sched.start()  # after the 1 s window
    sim.run(until=done)
    i1 = interval_of(sched.renderer, "I1")
    i2 = interval_of(sched.renderer, "I2")
    assert i1.shown_at == pytest.approx(1.0)  # delay + t=0
    assert i1.hidden_at == pytest.approx(1.0 + 6.0)
    assert i2.shown_at == pytest.approx(1.0 + 6.0)


def test_av_pair_stays_in_sync():
    sim = Simulator()
    scenario = PresentationScenario.from_document(figure2_document())
    sched = PresentationScheduler(sim, scenario, bindings_for(scenario))
    feed_all(sim, sched, scenario)
    for s in scenario.discrete_streams():
        sched.mark_loaded(s.stream_id)
    done = sched.start()
    sim.run(until=done)
    (series,) = sched.skew_series().values()
    assert len(series) > 0
    assert series.max_abs_s < 0.08
    assert series.fraction_out_of_sync == 0.0


def test_initial_delay_is_largest_time_window():
    sim = Simulator()
    scenario = PresentationScenario.from_document(figure2_document())
    sched = PresentationScheduler(sim, scenario, bindings_for(scenario),
                                  time_window_s=0.7)
    assert sched.initial_delay_s == pytest.approx(0.7)


def test_missing_binding_rejected():
    sim = Simulator()
    scenario = PresentationScenario.from_document(figure2_document())
    with pytest.raises(KeyError, match="StreamBinding"):
        PresentationScheduler(sim, scenario, {})


def test_late_image_shows_on_arrival():
    sim = Simulator()
    doc = (
        DocumentBuilder("t")
        .image("s:/i.gif", "I1", startime=1.0, duration=2.0)
        .build()
    )
    scenario = PresentationScenario.from_document(doc)
    sched = PresentationScheduler(sim, scenario, {})

    def loader():
        yield sim.timeout(5.0)  # content arrives after its deadline
        sched.mark_loaded("I1")

    sim.process(loader())
    done = sched.start()  # no continuous stream: no startup delay
    sim.run(until=done)
    assert interval_of(sched.renderer, "I1").shown_at == pytest.approx(5.0)


def test_pause_resume_stops_clock():
    sim = Simulator()
    doc = DocumentBuilder("t").audio("s:/a.au", "A", duration=2.0).build()
    scenario = PresentationScenario.from_document(doc)
    sched = PresentationScheduler(
        sim, scenario, {"A": StreamBinding("A", AUDIO_CLOCK, 0.02)},
        time_window_s=0.2,
    )
    for i in range(101):
        sched.buffer_for("A").push(audio_frame("A", i))
    done = sched.start()  # playout starts after the 0.2 s window

    def pauser():
        yield sim.timeout(1.2)
        sched.pause()
        yield sim.timeout(3.0)
        sched.resume()

    sim.process(pauser())
    sim.run(until=done)
    assert sim.now == pytest.approx(0.2 + 5.0, abs=0.1)
    assert sched.log.count(PlayoutEventKind.PAUSE, "A") == 1


def test_interrupt_cancels_presentation():
    sim = Simulator()
    doc = DocumentBuilder("t").audio("s:/a.au", "A", duration=60.0).build()
    scenario = PresentationScenario.from_document(doc)
    sched = PresentationScheduler(
        sim, scenario, {"A": StreamBinding("A", AUDIO_CLOCK, 0.02)},
        time_window_s=0.2,
    )
    for i in range(3001):
        sched.buffer_for("A").push(audio_frame("A", i))
    sched.start()

    def clicker():
        yield sim.timeout(2.0)
        sched.interrupt()

    sim.process(clicker())
    sim.run()
    assert sched.log.count(PlayoutEventKind.STOP, "A") == 0
    assert sim.now < 70.0


def test_double_start_rejected():
    sim = Simulator()
    scenario = PresentationScenario.from_document(DocumentBuilder("t").build())
    sched = PresentationScheduler(sim, scenario, {})
    sched.start()
    with pytest.raises(RuntimeError):
        sched.start()


def test_startup_latency_measured():
    sim = Simulator()
    doc = DocumentBuilder("t").audio("s:/a.au", "A", duration=1.0).build()
    scenario = PresentationScenario.from_document(doc)
    sched = PresentationScheduler(
        sim, scenario, {"A": StreamBinding("A", AUDIO_CLOCK, 0.02)},
        time_window_s=0.5,
    )
    for i in range(51):
        sched.buffer_for("A").push(audio_frame("A", i))
    done = sched.start()
    sim.run(until=done)
    assert sched.startup_latency_s() == pytest.approx(0.5, abs=0.02)


# ----------------------------------------------------------------- renderer
def test_renderer_visible_at_queries():
    r = VirtualRenderer()
    r.show("a", 1.0)
    r.show("b", 2.0)
    r.hide("a", 3.0)
    assert r.visible_now() == ["b"]
    assert r.visible_at(1.5) == ["a"]
    assert r.visible_at(2.5) == ["a", "b"]
    assert r.visible_at(3.5) == ["b"]
    r.finish(4.0)
    assert r.visible_now() == []
    assert interval_of(r, "b").hidden_at == 4.0
    assert interval_of(r, "zzz") is None


def test_renderer_double_show_idempotent():
    r = VirtualRenderer()
    r.show("a", 1.0)
    r.show("a", 2.0)
    r.finish(4.0)
    assert interval_of(r, "a").shown_at == 1.0
    r.hide("zzz", 3.0)  # hiding unknown id is a no-op


# ----------------------------------------------------------------- metrics
def test_event_log_summary_and_trajectory():
    log = PlayoutEventLog()
    log.record(0.0, "v", PlayoutEventKind.FRAME, grade=0)
    log.record(0.04, "v", PlayoutEventKind.FRAME, grade=0)
    log.record(0.08, "v", PlayoutEventKind.GAP)
    log.record(0.12, "v", PlayoutEventKind.FRAME, grade=2)
    log.record(0.16, "v", PlayoutEventKind.DUPLICATE)
    s = log.summary("v")
    assert s["frames"] == 3
    assert s["gaps"] == 1
    assert s["duplicates"] == 1
    assert s["gap_ratio"] == pytest.approx(1 / 5)
    assert s["mean_grade"] == pytest.approx(2 / 3)
    assert grade_trajectory(log, "v") == [(0.0, 0), (0.12, 2)]
    assert log.gap_count("v") * 0.04 == pytest.approx(0.04)
