"""Unit tests for RTP packetization, reception, jitter and RTCP."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import RngRegistry, Simulator
from repro.media import FrameKind
from repro.media.types import Frame
from repro.net import GilbertElliottLoss, Network, Packet
from repro.rtp import (
    InterarrivalJitterEstimator,
    RtcpReporter,
    RtcpSink,
    RtpPacket,
    RtpReceiver,
    RtpSender,
)
from repro.rtp.packets import SEQ_MODULUS
from repro.rtp.session import fragment_plan

CLOCK = 90_000


def build(loss_model=None, rate=4_000_000, delay=0.01):
    sim = Simulator()
    net = Network(sim)
    net.add_node("srv")
    net.add_node("cli")
    net.add_link("srv", "cli", rate, delay, loss_model=loss_model)
    net.add_link("cli", "srv", rate, delay)
    return sim, net


def frame(seq, size=1000, ticks=3600):
    return Frame("v", seq=seq, media_time=seq * ticks, duration=ticks,
                 size_bytes=size, kind=FrameKind.P)


def endpoints(net, on_frame=None):
    rx = RtpReceiver(net, "cli", 5004, CLOCK, "v", on_frame=on_frame)
    tx = RtpSender(net, "srv", 5005, "cli", 5004, ssrc=1, payload_type=32,
                   stream_id="v")
    return tx, rx


# ------------------------------------------------------------------ basic
def test_small_frame_single_packet_roundtrip():
    sim, net = build()
    got = []
    tx, rx = endpoints(net, on_frame=lambda f, t: got.append((f.seq, t)))
    assert tx.send_frame(frame(0, size=500)) == 1
    sim.run()
    assert len(got) == 1
    assert len(rx.stats.frames_done) == 1
    assert rx.stats.packets_received == 1


def test_large_frame_fragmented_and_reassembled():
    sim, net = build()
    got = []
    tx, rx = endpoints(net, on_frame=lambda f, t: got.append(f))
    n = tx.send_frame(frame(0, size=10_000))
    assert n == 8  # ceil(10000/1400)
    sim.run()
    assert len(got) == 1
    assert got[0].size_bytes == 10_000
    assert rx.stats.packets_received == 8
    assert len(rx.stats.frames_done) == 1


def test_sequence_numbers_increment_across_frames():
    sim, net = build()
    tx, rx = endpoints(net)
    tx.send_frame(frame(0, size=3000))
    tx.send_frame(frame(1, size=3000))
    sim.run()
    assert tx.packet_count == 6
    assert rx.stats.expected == 6
    assert rx.stats.cumulative_lost == 0


def test_loss_detected_from_sequence_numbers():
    rng = RngRegistry(seed=8).stream("ge")
    ge = GilbertElliottLoss(rng, p_gb=0.3, p_bg=0.3, loss_bad=0.6)
    sim, net = build(loss_model=ge)
    tx, rx = endpoints(net)

    def sender():
        for i in range(300):
            tx.send_frame(frame(i, size=1000))
            yield sim.timeout(0.04)

    sim.process(sender())
    sim.run()
    assert rx.stats.cumulative_lost > 0
    # Expected-vs-received accounting is self-consistent (head/tail
    # losses outside [base_seq, highest_seq] are invisible per the RFC).
    assert rx.stats.expected == rx.stats.packets_received + rx.stats.cumulative_lost
    assert rx.stats.packets_received + rx.stats.cumulative_lost <= 300


def test_incomplete_fragmented_frame_counted_dropped():
    rng = RngRegistry(seed=8).stream("ge2")
    ge = GilbertElliottLoss(rng, p_gb=0.4, p_bg=0.2, loss_bad=0.8)
    sim, net = build(loss_model=ge)
    got = []
    tx, rx = endpoints(net, on_frame=lambda f, t: got.append(f.seq))

    def sender():
        for i in range(200):
            tx.send_frame(frame(i, size=5000))  # 4 fragments each
            yield sim.timeout(0.04)

    sim.process(sender())
    sim.run()
    assert rx.stats.frames_dropped_fragments > 0
    assert len(rx.stats.frames_done) == len(got)
    assert len(rx.stats.frames_done) + rx.stats.frames_dropped_fragments <= 200


def test_delay_measurement():
    sim, net = build(rate=8_000_000, delay=0.025)
    tx, rx = endpoints(net)
    tx.send_frame(frame(0, size=1000))
    sim.run()
    # serialization (1012 B at 8 Mb/s ~ 1 ms) + 25 ms propagation
    assert rx.stats.mean_delay_s == pytest.approx(0.026, abs=0.001)


def test_seq_wraps_at_16_bits():
    sim, net = build()
    tx, rx = endpoints(net)
    tx._seq = 65_534

    def sender():
        for i in range(4):
            tx.send_frame(frame(i, size=500))
            yield sim.timeout(0.01)

    sim.process(sender())
    sim.run()
    assert rx.stats.packets_received == 4
    assert rx.stats.cumulative_lost == 0
    assert rx.stats.expected == 4


# ------------------------------------------------------------------ jitter
def test_jitter_zero_for_perfectly_paced_stream():
    est = InterarrivalJitterEstimator(CLOCK)
    for i in range(50):
        est.observe(arrival_s=i * 0.04, rtp_timestamp=i * 3600)
    assert est.jitter_s == pytest.approx(0.0, abs=1e-12)


def test_jitter_positive_for_variable_arrivals():
    est = InterarrivalJitterEstimator(CLOCK)
    import numpy as np

    rng = np.random.default_rng(1)
    for i in range(500):
        est.observe(i * 0.04 + rng.uniform(0, 0.01), i * 3600)
    assert est.jitter_s > 0.001


def test_jitter_converges_toward_mean_abs_transit_delta():
    est = InterarrivalJitterEstimator(CLOCK)
    # Alternating +5ms/-5ms transit: |D| alternates 10ms after first.
    for i in range(2000):
        jitter_off = 0.005 if i % 2 == 0 else 0.0
        est.observe(i * 0.04 + jitter_off, i * 3600)
    # |D| = 5 ms for every packet after the first, so J -> 5 ms.
    assert est.jitter_s == pytest.approx(0.005, rel=0.05)


# The estimator against its closed form (RFC 3550 A.8). Tolerances are
# derived from the arithmetic, not tuned. An arrival instant below
# ``t_max`` is built here by three rounded operations (``i * period + mean
# +- d``), so it is off by at most 1.5 ulp(t_max), and D, the difference
# of two of them against an exactly representable-as-computed period, by
# at most 3 ulp(t_max). ``J += (|D| - J) / 16`` is the convex combination
# ``15/16 J + 1/16 |D|``: an error in |D| is never amplified, and the
# update's own three roundings (each at most half an ulp of a value no
# larger than ``level``) shrink by 15/16 a step, so they sum to at most
# 16 x 1.5 = 24 ulp(level); one more for the closed form's own rounding.
def _jitter_tolerance(t_max, level):
    return 3 * math.ulp(t_max) + 25 * math.ulp(level)


JITTER_CLOCKS = [(90_000, 3600), (8_000, 160)]  # video 40 ms, audio 20 ms
MEAN_TRANSIT_S = 0.0123


@pytest.mark.parametrize("clock,ticks", JITTER_CLOCKS)
def test_jitter_is_zero_for_a_constant_transit_delay(clock, ticks):
    est = InterarrivalJitterEstimator(clock)
    period = ticks / clock
    packets = 201
    t_max = packets * period + MEAN_TRANSIT_S
    for i in range(packets):
        est.observe(i * period + MEAN_TRANSIT_S, i * ticks)
        # every |D| is rounding noise, and J never exceeds the largest
        noise = 3 * math.ulp(t_max)
        assert 0.0 <= est.jitter_s <= _jitter_tolerance(t_max, noise)
    assert est.samples == packets - 1


@pytest.mark.parametrize("clock,ticks", JITTER_CLOCKS)
def test_jitter_follows_its_closed_form_for_alternating_transit(clock,
                                                                ticks):
    """Transit alternating +-d around a mean: every |D| is 2d, so from
    J_0 = 0 the recursion gives 2d - J_n = 2d (15/16)^n."""
    d = 0.005
    est = InterarrivalJitterEstimator(clock)
    period = ticks / clock
    t_max = 201 * period + MEAN_TRANSIT_S + d
    tolerance = _jitter_tolerance(t_max, 2 * d)
    assert tolerance < 1e-13  # a closed form, not a trend
    checked = []
    for i in range(201):
        offset = d if i % 2 == 0 else -d
        est.observe(i * period + MEAN_TRANSIT_S + offset, i * ticks)
        n = est.samples
        if n in (1, 16, 200):
            gap = 2 * d - est.jitter_s
            assert abs(gap - 2 * d * (15 / 16) ** n) <= tolerance, n
            checked.append(n)
    assert checked == [1, 16, 200]


def test_jitter_validation():
    with pytest.raises(ValueError):
        InterarrivalJitterEstimator(0)


# ------------------------------------------------------------------ RTCP
def test_rtcp_reports_flow_back_to_sink():
    sim, net = build()
    tx, rx = endpoints(net)
    sink = RtcpSink(net, "srv", 5006)
    RtcpReporter(net, rx, "cli", 5007, "srv", 5006, interval_s=0.5)

    def sender():
        for i in range(100):
            tx.send_frame(frame(i, size=1000))
            yield sim.timeout(0.04)

    sim.process(sender())
    sim.run(until=4.2)
    assert len(sink.reports_received) == 8
    last = sink.reports_received[-1]
    assert last.stream_id == "v"
    assert last.fraction_lost == 0.0
    assert last.mean_delay_s > 0.0


def test_rtcp_fraction_lost_under_loss():
    rng = RngRegistry(seed=12).stream("ge")
    ge = GilbertElliottLoss(rng, p_gb=0.3, p_bg=0.3, loss_bad=0.5)
    sim, net = build(loss_model=ge)
    tx, rx = endpoints(net)
    sink = RtcpSink(net, "srv", 5006)
    RtcpReporter(net, rx, "cli", 5007, "srv", 5006, interval_s=1.0)

    def sender():
        for i in range(250):
            tx.send_frame(frame(i, size=1000))
            yield sim.timeout(0.04)

    sim.process(sender())
    sim.run(until=11.0)
    fractions = [r.fraction_lost for r in sink.reports_received]
    assert any(f > 0 for f in fractions)
    assert all(0.0 <= f <= 1.0 for f in fractions)


def test_rtcp_reporter_stop():
    sim, net = build()
    tx, rx = endpoints(net)
    RtcpSink(net, "srv", 5006)
    rep = RtcpReporter(net, rx, "cli", 5007, "srv", 5006, interval_s=0.5)
    sim.run(until=1.2)
    rep.stop()
    count = rep.reports_sent
    sim.run(until=5.0)
    assert rep.reports_sent == count


def test_rtcp_uses_rtcp_protocol_label():
    sim, net = build()
    tx, rx = endpoints(net)
    RtcpSink(net, "srv", 5006)
    RtcpReporter(net, rx, "cli", 5007, "srv", 5006, interval_s=0.5)
    tx.send_frame(frame(0))
    sim.run(until=1.1)
    assert "RTCP" in net.tap.bytes_by_protocol
    assert "RTP" in net.tap.bytes_by_protocol


def test_rtcp_interval_validation():
    sim, net = build()
    tx, rx = endpoints(net)
    with pytest.raises(ValueError):
        RtcpReporter(net, rx, "cli", 5007, "srv", 5006, interval_s=0)


# ------------------------------------------------------------------ packets
def test_rtp_packet_validation():
    with pytest.raises(ValueError):
        RtpPacket(ssrc=1, payload_type=32, seq=-1, timestamp=0, marker=True,
                  payload_bytes=10)
    with pytest.raises(ValueError):
        RtpPacket(ssrc=1, payload_type=32, seq=0, timestamp=0, marker=True,
                  payload_bytes=0)
    with pytest.raises(ValueError):
        RtpPacket(ssrc=1, payload_type=32, seq=0, timestamp=0, marker=True,
                  payload_bytes=10, fragment_index=2, fragment_count=2)
    p = RtpPacket(ssrc=1, payload_type=32, seq=0, timestamp=0, marker=True,
                  payload_bytes=100)
    assert p.size_bytes == 112


def test_rtp_packet_is_immutable():
    p = RtpPacket(1, 32, 7, 3600, True, 100, 1, 2, "frame")
    assert (p.ssrc, p.payload_type, p.seq, p.timestamp, p.marker,
            p.payload_bytes, p.fragment_index, p.fragment_count,
            p.frame) == (1, 32, 7, 3600, True, 100, 1, 2, "frame")
    with pytest.raises(AttributeError):
        p.seq = 8
    with pytest.raises(AttributeError):
        p.extra = 1
    assert p._replace(seq=8).seq == 8


# ------------------------------------------------------------------ sequence
def _reference_unwrap(high, seq):
    """The closest-candidate search the modular unwrap replaced, verbatim."""
    candidate = (high - high % SEQ_MODULUS) + seq
    alternatives = (candidate - SEQ_MODULUS, candidate,
                    candidate + SEQ_MODULUS)
    return min(alternatives, key=lambda c: abs(c - high))


@settings(max_examples=200, deadline=None)
@given(first=st.integers(0, SEQ_MODULUS - 1),
       steps=st.lists(st.one_of(st.integers(-40_000, 40_000),
                                st.sampled_from([1, 1, 1, -1, 0, 32_767,
                                                 32_768, -32_768])),
                      max_size=40))
def test_property_unwrap_matches_the_closest_candidate_search(first, steps):
    """Delivered to the receiver's node, every seq moves the unwrapped
    highest exactly as far as the closest candidate would."""
    sim, net = build()
    _tx, rx = endpoints(net)
    node = net.node("cli")

    def deliver(seq):
        node.deliver(Packet("srv", "cli", 112, "RTP", "v", 5004,
                            RtpPacket(1, 32, seq, 0, True, 100), seq))

    deliver(first)
    assert rx.stats.base_seq == rx.stats.highest_seq == first
    high, sent = first, first
    for step in steps:
        sent += step
        if sent < 0:
            sent = 0
        high = max(high, _reference_unwrap(high, sent % SEQ_MODULUS))
        deliver(sent % SEQ_MODULUS)
        assert rx.stats.highest_seq == high
    assert rx.stats.base_seq == first
    assert rx.stats.packets_received == len(steps) + 1


def test_late_packet_behind_sequence_zero_keeps_highest_seq():
    """Seq 0 is a highest sequence like any other, not "unset"."""
    sim, net = build()
    _tx, rx = endpoints(net)
    node = net.node("cli")
    for seq in (0, SEQ_MODULUS - 1):  # 65535 is one *behind* 0
        node.deliver(Packet(
            "srv", "cli", 112, "RTP", "v", 5004,
            RtpPacket(1, 32, seq, 0, True, 100), seq))
    assert rx.stats.packets_received == 2
    assert rx.stats.highest_seq == 0
    assert rx.stats.base_seq == 0
    assert rx.stats.expected == 1


# ------------------------------------------------------------------ fragments
@given(size=st.integers(1, 50_000), mtu=st.integers(1, 3_000))
def test_property_fragment_plan_is_the_greedy_split(size, mtu):
    plan = fragment_plan(size, mtu)
    remaining, greedy = size, []
    while remaining > 0:
        greedy.append(min(mtu, remaining))
        remaining -= greedy[-1]
    assert list(plan) == greedy


def test_fragment_plan_is_shared_by_every_sender_of_a_frame():
    """A shared flow's fan-out computes a frame's plan once."""
    sim, net = build(rate=100e6)
    senders = [
        RtpSender(net, "srv", 6000 + i, "cli", 7000 + i, ssrc=i,
                  payload_type=32, stream_id=f"v{i}")
        for i in range(12)
    ]
    big = frame(0, size=31_337)
    before = fragment_plan.cache_info()
    for tx in senders:
        assert tx.send_frame(big) == 23
    after = fragment_plan.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits - before.hits >= 11


# ------------------------------------------------------------------ property
@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=20_000),
                      min_size=1, max_size=30))
def test_property_lossless_path_delivers_every_frame(sizes):
    sim, net = build(rate=100e6, delay=0.001)
    got = []
    tx, rx = endpoints(net, on_frame=lambda f, t: got.append(f.size_bytes))

    def sender():
        for i, s in enumerate(sizes):
            tx.send_frame(frame(i, size=s))
            yield sim.timeout(0.005)

    sim.process(sender())
    sim.run()
    assert got == sizes
    assert rx.stats.cumulative_lost == 0


# ------------------------------------------------------------ frame ledger
def test_frame_ledger_holds_what_no_endpoint_does():
    """First send instants in send order, the frames a link hit, and at
    the receiver which frames completed and which it gave up on: enough
    to tell a lost frame from a dropped one without a trace."""
    rng = RngRegistry(seed=8).stream("ge2")
    ge = GilbertElliottLoss(rng, p_gb=0.4, p_bg=0.2, loss_bad=0.8)
    sim, net = build(loss_model=ge)
    rx = RtpReceiver(net, "cli", 5004, CLOCK, "v")
    tx = RtpSender(net, "srv", 5005, "cli", 5004, ssrc=1, payload_type=32,
                   stream_id="v", session="s1")

    def sender():
        for i in range(200):
            tx.send_frame(frame(i, size=5000))  # 4 fragments each
            yield sim.timeout(0.04)
        tx.send_frame(frame(7, size=5000))  # a failover sender's repeat

    sim.process(sender())
    sim.run()
    rows = list(net.frames_sent["s1"])  # flat: stream, seq, send instant
    assert rows[::3] == ["v"] * 201
    assert rows[1::3] == list(range(200)) + [7]
    assert rows[2::3] == pytest.approx([i * 0.04 for i in range(201)])
    hit = net.frames_hit["s1"]
    assert hit and all(flow == "v" and ts == seq * 3600
                       for (flow, seq), ts in hit.items())
    assert len(rx.frames_done) == len(rx.stats.frames_done)
    assert list(rx.frames_done) == sorted(set(rx.frames_done))
    assert len(rx.frames_stale) == rx.stats.frames_dropped_fragments > 0
    # every frame is accounted for: whole, given up on, or lost outright
    lost = [seq for _flow, seq in hit
            if seq not in rx.frames_done and seq * 3600 not in rx.frames_stale]
    assert lost
    assert len(rx.stats.frames_done) + len(rx.frames_stale) + len(lost) == 200


def test_anonymous_sender_keeps_its_ledger_page_to_itself():
    sim, net = build()
    tx, _rx = endpoints(net)
    tx.send_frame(frame(0))
    sim.run()
    assert net.frames_sent == {} and net.frames_hit == {}
