"""Unit tests for the quality converter and Server QoS Manager."""

import pytest

from repro.des import RngRegistry, Simulator
from repro.media import MediaType, default_registry
from repro.media.traces import FrameSource
from repro.rtp.packets import RtcpReceiverReport
from repro.server import (
    GradingPolicy,
    MediaStreamQualityConverter,
    ServerQoSManager,
    qos_manager,
)

REG = default_registry()


def video_converter(floor=4, allow_suspend=True, seed=1):
    src = FrameSource("V", REG.get("MPEG"),
                      RngRegistry(seed=seed).stream("v"))
    return MediaStreamQualityConverter(src, floor_grade=floor,
                                       allow_suspend=allow_suspend)


def audio_converter(floor=2, seed=1):
    src = FrameSource("A", REG.get("PCM-family"),
                      RngRegistry(seed=seed).stream("a"))
    return MediaStreamQualityConverter(src, floor_grade=floor)


def report(stream_id, loss=0.0, jitter=0.0):
    return RtcpReceiverReport(
        stream_id=stream_id, fraction_lost=loss, jitter_s=jitter,
        mean_delay_s=0.02,
    )


# ------------------------------------------------------------- converter
def test_converter_degrades_to_floor_then_suspends():
    conv = video_converter(floor=2)
    grades = [conv.grade_index]
    while conv.degrade(now=0.0):
        grades.append(conv.grade_index)
    assert grades == [0, 1, 2, 5]  # 5 = suspend sentinel index
    assert conv.suspended
    assert not conv.can_degrade


def test_converter_without_suspend_stops_at_floor():
    conv = video_converter(floor=2, allow_suspend=False)
    while conv.degrade(now=0.0):
        pass
    assert conv.grade_index == 2
    assert not conv.suspended


def test_converter_upgrade_reenters_from_suspend():
    conv = video_converter(floor=1)
    conv.degrade(0.0)
    conv.degrade(1.0)  # at floor 1 -> suspend
    assert conv.suspended
    assert conv.upgrade(2.0)
    assert conv.grade_index == 4  # worst real rung
    while conv.upgrade(3.0):
        pass
    assert conv.grade_index == 0


def test_converter_floor_clamped_to_ladder():
    conv = video_converter(floor=99)
    assert conv.floor_grade == 4  # deepest real rung


def test_converter_history_records_reasons():
    conv = video_converter()
    conv.degrade(1.5, reason="loss spike")
    assert conv.history[0].reason == "loss spike"
    assert conv.grade_trajectory() == [(1.5, 1)]


# ------------------------------------------------------------- manager
def manager(sim=None, **policy_kw):
    sim = sim or Simulator()
    mgr = ServerQoSManager(sim, GradingPolicy(**policy_kw))
    vconv = video_converter()
    aconv = audio_converter()
    mgr.register_stream("V", MediaType.VIDEO, vconv)
    mgr.register_stream("A", MediaType.AUDIO, aconv)
    return sim, mgr, vconv, aconv


def test_congestion_degrades_video_first():
    sim, mgr, vconv, aconv = manager()
    mgr.on_report(report("A", loss=0.2))  # audio suffering...
    assert vconv.grade_index == 1  # ...but video pays first
    assert aconv.grade_index == 0
    assert mgr.decisions[0].action == "degrade"
    assert mgr.decisions[0].target_stream == "V"


def test_audio_first_policy_for_ablation():
    sim, mgr, vconv, aconv = manager(order="audio-first")
    mgr.on_report(report("V", loss=0.2))
    assert aconv.grade_index == 1
    assert vconv.grade_index == 0


def test_degrade_cooldown_limits_rate():
    sim, mgr, vconv, aconv = manager(degrade_cooldown_s=10.0)
    mgr.on_report(report("V", loss=0.2))
    mgr.on_report(report("V", loss=0.2))  # within cooldown: ignored
    assert vconv.grade_index == 1
    sim._now = 11.0  # advance simulated clock directly
    mgr.on_report(report("V", loss=0.2))
    assert vconv.grade_index == 2


def test_video_exhausted_then_audio_degraded():
    sim, mgr, vconv, aconv = manager(degrade_cooldown_s=0.0)
    for _ in range(7):  # video: 0->4 then suspend; then audio
        mgr.on_report(report("V", loss=0.3))
    assert vconv.suspended
    assert aconv.grade_index > 0


def test_upgrade_requires_hysteresis_across_session(monkeypatch):
    monkeypatch.setattr(qos_manager, "HYSTERESIS_REPORTS", 3)
    monkeypatch.setattr(qos_manager, "UPGRADE_COOLDOWN_S", 0.0)
    sim, mgr, vconv, aconv = manager(degrade_cooldown_s=0.0)
    vconv.degrade(0.0)
    sim._now = 100.0
    # Only V reports clear: no upgrade (A has no streak yet).
    mgr.on_report(report("V"))
    mgr.on_report(report("V"))
    mgr.on_report(report("V"))
    assert vconv.grade_index == 1
    # A also clears three times -> upgrade fires.
    mgr.on_report(report("A"))
    mgr.on_report(report("A"))
    mgr.on_report(report("A"))
    assert vconv.grade_index == 0
    assert any(d.action == "upgrade" for d in mgr.decisions)


def test_congestion_resets_clear_streak(monkeypatch):
    monkeypatch.setattr(qos_manager, "HYSTERESIS_REPORTS", 2)
    monkeypatch.setattr(qos_manager, "UPGRADE_COOLDOWN_S", 0.0)
    sim, mgr, vconv, aconv = manager(degrade_cooldown_s=0.0)
    vconv.degrade(0.0)
    sim._now = 50.0
    mgr.on_report(report("A"))
    mgr.on_report(report("A"))
    mgr.on_report(report("V"))
    mgr.on_report(report("V", loss=0.5))  # congested: resets V streak
    sim._now = 60.0
    mgr.on_report(report("V"))
    assert vconv.grade_index >= 1  # no upgrade yet (streak broken)


def test_disabled_policy_never_acts():
    sim, mgr, vconv, aconv = manager(enabled=False)
    mgr.on_report(report("V", loss=0.5))
    assert vconv.grade_index == 0
    assert not mgr.decisions


def test_jitter_alone_triggers_degrade():
    sim, mgr, vconv, aconv = manager()
    mgr.on_report(report("V", jitter=0.1))
    assert vconv.grade_index == 1


def test_unknown_stream_report_ignored():
    sim, mgr, vconv, aconv = manager()
    mgr.on_report(report("ghost", loss=0.9))
    assert not mgr.decisions


def test_policy_validation():
    with pytest.raises(ValueError):
        GradingPolicy(order="sideways")
    sim = Simulator()
    mgr = ServerQoSManager(sim)
    conv = video_converter()
    mgr.register_stream("V", MediaType.VIDEO, conv)
    with pytest.raises(ValueError):
        mgr.register_stream("V", MediaType.VIDEO, conv)


def test_proportional_order_spreads_degrades():
    sim = Simulator()
    mgr = ServerQoSManager(sim, GradingPolicy(order="proportional",
                                              degrade_cooldown_s=0.0))
    v1 = video_converter(seed=1)
    v2 = video_converter(seed=2)
    mgr.register_stream("V1", MediaType.VIDEO, v1)
    mgr.register_stream("V2", MediaType.VIDEO, v2)
    mgr.on_report(report("V1", loss=0.3))
    mgr.on_report(report("V1", loss=0.3))
    # Least-degraded first: both videos get one rung each.
    assert {v1.grade_index, v2.grade_index} == {1}
