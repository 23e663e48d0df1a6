"""Unit tests for adaptive ("specifically calculated") RTCP reporting."""

import pytest

from repro.des import RngRegistry, Simulator
from repro.media.types import Frame, FrameKind
from repro.net import GilbertElliottLoss, Network
from repro.rtp import RtcpReporter, RtcpSink, RtpReceiver, RtpSender

CLOCK = 90_000


def build(loss_model=None):
    sim = Simulator()
    net = Network(sim)
    net.add_node("srv")
    net.add_node("cli")
    net.add_link("srv", "cli", 4e6, 0.01, loss_model=loss_model)
    net.add_link("cli", "srv", 4e6, 0.01)
    rx = RtpReceiver(net, "cli", 5004, CLOCK, "v")
    tx = RtpSender(net, "srv", 5005, "cli", 5004, ssrc=1, payload_type=32,
                   stream_id="v")
    sink = RtcpSink(net, "srv", 5006)
    return sim, net, tx, rx, sink


def frame(i):
    return Frame("v", seq=i, media_time=i * 3600, duration=3600,
                 size_bytes=1000, kind=FrameKind.P)


def send_stream(sim, tx, n=500):
    def sender():
        for i in range(n):
            tx.send_frame(frame(i))
            yield sim.timeout(0.04)

    sim.process(sender())


def test_adaptive_relaxes_when_clean():
    sim, net, tx, rx, sink = build()
    rep = RtcpReporter(net, rx, "cli", 5007, "srv", 5006,
                       interval_s=0.5, adaptive=True,
                       min_interval_s=0.25)
    send_stream(sim, tx, n=400)
    sim.run(until=16.0)
    # Clean network: the interval relaxed to (or near) the maximum...
    assert rep.current_interval_s >= 2.0
    # ...so far fewer reports than the 0.5 s base would give (32).
    assert rep.reports_sent < 16


def test_adaptive_reports_early_on_congestion_onset():
    rng = RngRegistry(seed=21).stream("ge")
    ge = GilbertElliottLoss(rng, p_gb=0.0, p_bg=0.0, loss_bad=0.5)
    sim, net, tx, rx, sink = build(loss_model=ge)
    rep = RtcpReporter(net, rx, "cli", 5007, "srv", 5006,
                       interval_s=1.0, adaptive=True,
                       min_interval_s=0.25)
    send_stream(sim, tx, n=400)
    # Clean for 8 s (interval relaxes), then the loss state flips on.
    sim.run(until=8.0)
    reports_before = rep.reports_sent
    interval_before = rep.current_interval_s
    assert interval_before >= 2.0
    ge.in_bad = True
    ge.p_bg = 0.0
    ge.p_gb = 1.0
    sim.run(until=9.5)
    # An early (event-triggered) report fired well inside the relaxed
    # interval, and the interval snapped back down.
    assert rep.reports_sent > reports_before
    assert rep.current_interval_s <= 0.5
    congested = [r for r in sink.reports_received if r.fraction_lost > 0]
    assert congested


def test_fixed_mode_unaffected_by_adaptive_params():
    sim, net, tx, rx, sink = build()
    rep = RtcpReporter(net, rx, "cli", 5007, "srv", 5006,
                       interval_s=0.5, adaptive=False)
    send_stream(sim, tx, n=100)
    sim.run(until=4.2)
    assert rep.reports_sent == 8
    assert rep.current_interval_s == 0.5


def test_adaptive_validation():
    sim, net, tx, rx, sink = build()
    with pytest.raises(ValueError):
        RtcpReporter(net, rx, "cli", 5007, "srv", 5006,
                     interval_s=1.0, adaptive=True,
                     min_interval_s=2.0)


def test_peek_interval_loss_nondestructive():
    sim, net, tx, rx, sink = build()
    send_stream(sim, tx, n=50)
    sim.run(until=3.0)
    a = rx.peek_interval_loss()
    b = rx.peek_interval_loss()
    assert a == b == 0.0
    # snapshot still works after peeking
    fraction, received = rx.snapshot_interval()
    assert received > 0
