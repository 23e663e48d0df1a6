"""Unit tests for the intermedia skew controller."""

import pytest

from repro.client import SkewController
from repro.client.metrics import SkewSeries
from tests.helpers import skew_sample


def controller(**kw):
    return SkewController("g", master_id="A", **kw)


def test_no_decision_before_master_reports():
    c = controller()
    assert c.decide("V", now=0.0, frame_interval_s=0.04).action == "play"
    assert c.skew_of("V") is None


def test_in_sync_plays():
    c = controller()
    c.report_position("A", 1.00)
    c.report_position("V", 1.02)  # 20 ms < 80 ms threshold
    d = c.decide("V", now=0.0, frame_interval_s=0.04)
    assert d.action == "play"
    assert c.skew_of("V") == pytest.approx(0.02)


def test_slave_ahead_duplicates():
    c = controller()
    c.report_position("A", 1.0)
    c.report_position("V", 1.2)
    d = c.decide("V", now=0.0, frame_interval_s=0.04)
    assert d.action == "duplicate"
    assert c.stats.duplicates == 1


def test_slave_behind_drops_bounded():
    c = controller()  # MAX_DROPS_PER_TICK = 3
    c.report_position("A", 2.0)
    c.report_position("V", 1.0)  # 1 s behind = 25 frames
    d = c.decide("V", now=0.0, frame_interval_s=0.04)
    assert d.action == "drop"
    assert d.drop_count == 3
    # Slightly behind: only the necessary frames.
    c.report_position("V", 1.9)  # 100 ms behind ~ 2.5 frames
    d2 = c.decide("V", now=0.1, frame_interval_s=0.04)
    assert d2.action == "drop"
    assert d2.drop_count == 2


def test_disabled_controller_measures_but_never_acts():
    c = controller(enabled=False)
    c.report_position("A", 2.0)
    c.report_position("V", 1.0)
    d = c.decide("V", now=0.0, frame_interval_s=0.04)
    assert d.action == "play"
    assert len(c.series) == 1  # skew still sampled
    assert c.stats.drops == 0


def test_master_never_decides():
    c = controller()
    with pytest.raises(ValueError):
        c.decide("A", now=0.0, frame_interval_s=0.04)


def test_inactive_master_suspends_decisions():
    c = controller()
    c.report_position("A", 1.0, active=False)
    c.report_position("V", 5.0)
    assert c.skew_of("V") is None
    assert c.decide("V", now=0.0, frame_interval_s=0.04).action == "play"


# ---------------------------------------------------------------- series
def test_skew_series_statistics():
    s = SkewSeries("g")  # the 80 ms threshold
    for t, v in [(0, 0.01), (1, -0.05), (2, 0.2), (3, -0.1)]:
        skew_sample(s, t, v)
    assert s.max_abs_s == pytest.approx(0.2)
    assert s.mean_abs_s == pytest.approx((0.01 + 0.05 + 0.2 + 0.1) / 4)
    assert s.fraction_out_of_sync == pytest.approx(0.5)


def test_skew_series_empty():
    s = SkewSeries("g")
    assert s.max_abs_s == 0.0
    assert s.mean_abs_s == 0.0
    assert s.fraction_out_of_sync == 0.0
