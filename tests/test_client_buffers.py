"""Unit + property tests for media buffers and time-window sizing."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.client.buffers as buffers
from repro.client import MediaBuffer, compute_time_window
from repro.client.monitor import BufferAction, BufferMonitor, BufferState
from repro.media.types import Frame, FrameKind

CLOCK = 90_000
TICKS = 3600  # 25 fps


def frame(seq, ticks=TICKS):
    return Frame("v", seq=seq, media_time=seq * ticks, duration=ticks,
                 size_bytes=1000, kind=FrameKind.P)


# ------------------------------------------------------------ time window
def window(interval, jitter=buffers.EXPECTED_JITTER_S,
           loss=buffers.EXPECTED_LOSS):
    """The window sized for ``jitter`` and ``loss`` (the constants)."""
    with mock.patch.object(buffers, "EXPECTED_JITTER_S", jitter), \
            mock.patch.object(buffers, "EXPECTED_LOSS", loss):
        return compute_time_window(interval)


def test_time_window_floor_of_three_frames():
    # Negligible jitter: window still covers >= 3 frame intervals
    # (and the absolute minimum of 0.2 s dominates at 25 fps).
    w = window(0.04, jitter=0.0, loss=0.0)
    assert w >= 3 * 0.04
    assert w == pytest.approx(0.2)


def test_time_window_grows_with_jitter():
    w_low = window(0.04, jitter=0.01)
    w_high = window(0.04, jitter=0.2)
    assert w_high > w_low


def test_time_window_grows_with_loss():
    w0 = window(0.04, jitter=0.1, loss=0.0)
    w1 = window(0.04, jitter=0.1, loss=0.2)
    assert w1 > w0


def test_time_window_capped():
    w = window(0.04, jitter=100.0)
    assert w == 8.0


def test_time_window_validation():
    with pytest.raises(ValueError):
        compute_time_window(0.0)


@settings(max_examples=50, deadline=None)
@given(
    interval=st.floats(min_value=1e-3, max_value=1.0),
    jitter=st.floats(min_value=0.0, max_value=10.0),
    loss=st.floats(min_value=0.0, max_value=0.9),
)
def test_property_time_window_bounds(interval, jitter, loss):
    w = window(interval, jitter=jitter, loss=loss)
    assert 0.2 <= w <= 8.0 or w >= 3 * interval
    assert w <= 8.0


# ------------------------------------------------------------ buffer
def test_buffer_occupancy_accounting():
    buf = MediaBuffer("v", CLOCK, time_window_s=1.0)
    assert len(buf) == 0 and buf.occupancy_s == 0.0
    for i in range(5):
        assert buf.push(frame(i))
    assert len(buf) == 5
    assert buf.occupancy_s == pytest.approx(5 * 0.04)
    buf.pop()
    assert buf.occupancy_s == pytest.approx(4 * 0.04)


def test_buffer_prefill_threshold():
    buf = MediaBuffer("v", CLOCK, time_window_s=0.2)
    for i in range(4):
        buf.push(frame(i))
    assert buf.occupancy_s < buf.time_window_s  # 0.16 s < 0.2 s
    buf.push(frame(4))
    assert buf.occupancy_s >= buf.time_window_s


def test_buffer_overflow_drops_at_capacity():
    buf = MediaBuffer("v", CLOCK, time_window_s=0.2, capacity_s=0.2)
    pushed = sum(buf.push(frame(i)) for i in range(10))
    assert pushed == 5  # 5 * 0.04 = 0.2 s fits
    assert buf.stats.overflow_drops == 5


def test_buffer_underflow_counts():
    buf = MediaBuffer("v", CLOCK, time_window_s=1.0)
    assert buf.pop() is None
    assert buf.stats.underflow_events == 1


def test_buffer_fifo_and_peek_drop_head():
    buf = MediaBuffer("v", CLOCK, time_window_s=1.0)
    for i in range(3):
        buf.push(frame(i))
    assert buf.peek().seq == 0
    assert buf.drop_head().seq == 0
    assert buf.pop().seq == 1
    assert buf.pop().seq == 2
    assert len(buf) == 0
    assert buf.drop_head() is None
    assert buf.peek() is None


def test_buffer_validation():
    with pytest.raises(ValueError):
        MediaBuffer("v", 0, time_window_s=1.0)
    with pytest.raises(ValueError):
        MediaBuffer("v", CLOCK, time_window_s=0.0)
    with pytest.raises(ValueError):
        MediaBuffer("v", CLOCK, time_window_s=2.0, capacity_s=1.0)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.sampled_from(["push", "pop", "drop"]), max_size=120))
def test_property_buffer_occupancy_never_negative(ops):
    buf = MediaBuffer("v", CLOCK, time_window_s=0.4)
    seq = 0
    for op in ops:
        if op == "push":
            buf.push(frame(seq))
            seq += 1
        elif op == "pop":
            buf.pop()
        else:
            buf.drop_head()
        assert buf.occupancy_s >= 0.0
        assert (len(buf) == 0) == (buf.occupancy_s == 0.0)


# ------------------------------------------------------------ monitor
def make_buf(n, window=0.4):
    buf = MediaBuffer("v", CLOCK, time_window_s=window, capacity_s=10 * window)
    for i in range(n):
        buf.push(frame(i))
    return buf


def test_monitor_states():
    low = BufferMonitor(make_buf(1))  # 0.04/0.4 = 0.1 < 0.25
    low.check(0.0)
    assert low.state is BufferState.LOW
    normal = BufferMonitor(make_buf(10))  # 0.4/0.4 = 1.0
    normal.check(0.0)
    assert normal.state is BufferState.NORMAL
    high = BufferMonitor(make_buf(20))  # 0.8/0.4 = 2.0 > 1.5
    high.check(0.0)
    assert high.state is BufferState.HIGH


def test_monitor_recommendations():
    low = BufferMonitor(make_buf(1))
    assert low.check(0.0) is BufferAction.DUPLICATE
    high = BufferMonitor(make_buf(20))
    assert high.check(0.0) is BufferAction.DROP
    normal = BufferMonitor(make_buf(10))
    assert normal.check(0.0) is BufferAction.NONE


def test_monitor_empty_buffer_no_duplicate():
    # Nothing to replay: duplication needs at least one frame.
    empty = BufferMonitor(make_buf(0))
    assert empty.check(0.0) is BufferAction.NONE


def test_monitor_counts_state_entries():
    buf = make_buf(10)
    mon = BufferMonitor(buf)
    assert mon.check(0.0) is BufferAction.NONE
    while len(buf) > 1:
        buf.pop()
    mon.check(1.0)
    assert mon.stats.low_entries == 1
    for i in range(100, 130):
        buf.push(frame(i))
    mon.check(2.0)
    assert mon.stats.high_entries == 1
    assert [s for _, s in mon.stats.state_trace] == [
        BufferState.LOW, BufferState.HIGH,
    ]


def test_monitor_validation():
    with pytest.raises(ValueError):
        BufferMonitor(make_buf(1), max_consecutive_duplicates=0)
