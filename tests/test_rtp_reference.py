"""Referee: today's RTP endpoints against the bookkeeping they replaced.

A receiver used to write nine counters per packet, unwrap the sequence
number through a helper that kept its own copy of the highest, and feed
an :class:`InterarrivalJitterEstimator`. It now counts what an RTCP
report cannot derive -- packets, the unwrapped base and highest
sequence, the delay sum and last sample -- updates the jitter inline
and derives loss, the delay sample count, the interval's receptions and
the frames reassembled when they are read. :class:`CounterReceiver`
below is the old bookkeeping, kept as the reference; it is not part of
the package.

Generated packet streams -- loss, reordering, duplicates, sequence
jumps and wraps from any first sequence number, fragmented frames --
go to both, with RTCP snapshots and peeks interleaved, and every
statistic must come out equal, floats included (``==``, not approx).

A sender builds its RTP headers without :class:`RtpPacket`'s checks;
every header it emits must be one that the checking constructor
rebuilds unchanged.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Simulator
from repro.media import FrameKind
from repro.media.types import Frame
from repro.net import Network, Packet
from repro.rtp import InterarrivalJitterEstimator, RtpPacket, RtpReceiver
from repro.rtp import RtpReceiverStats, RtpSender
from repro.rtp import session as rtp_session
from repro.rtp.packets import SEQ_MODULUS

CLOCK = 90_000
TICKS = 3600


class CounterReceiver:
    """The receiver's bookkeeping as it was: every counter written per
    packet, ``_unwrap`` with its own highest, and the RFC estimator."""

    def __init__(self, clock_rate):
        self.packets_received = 0
        self.frames_received = 0
        self.frames_dropped_fragments = 0
        self.bytes_received = 0
        self.base_seq = None
        self.highest_seq = None
        self.cumulative_lost = 0
        self.delay_sum_s = 0.0
        self.delay_samples = 0
        self.interval_expected_base = 0
        self.interval_received = 0
        self.jitter = InterarrivalJitterEstimator(clock_rate)
        self._unwrapped_high = None
        self._frag_seen = {}
        self.frames_done = []
        self.frames_stale = set()

    @property
    def mean_delay_s(self):
        if self.delay_samples == 0:
            return 0.0
        return self.delay_sum_s / self.delay_samples

    @property
    def expected(self):
        if self.base_seq is None or self.highest_seq is None:
            return 0
        return self.highest_seq - self.base_seq + 1

    def _unwrap(self, seq):
        high = self._unwrapped_high
        if high is None:
            self._unwrapped_high = seq
            return seq
        ahead = (seq - high) % SEQ_MODULUS
        if ahead < SEQ_MODULUS // 2:
            if ahead:
                self._unwrapped_high = high + ahead
            return high + ahead
        return high + ahead - SEQ_MODULUS

    def on_packet(self, pkt, now):
        rtp = pkt.payload
        timestamp = rtp.timestamp
        self.packets_received += 1
        self.interval_received += 1
        self.bytes_received += rtp.payload_bytes
        useq = self._unwrap(rtp.seq)
        if self.base_seq is None:
            self.base_seq = useq
        if self.highest_seq is None or useq > self.highest_seq:
            self.highest_seq = useq
        lost = self.highest_seq - self.base_seq + 1 - self.packets_received
        self.cumulative_lost = lost if lost > 0 else 0
        self.delay_sum_s += now - pkt.created_at
        self.delay_samples += 1
        self.jitter.observe(now, timestamp)
        seen = self._frag_seen.get(timestamp, 0) + 1
        if seen == rtp.fragment_count and rtp.marker:
            self._frag_seen.pop(timestamp, None)
            self.frames_received += 1
            self.frames_done.append(pkt.frame_seq)
            stale = [ts for ts in self._frag_seen if ts < timestamp]
            self.frames_stale.update(stale)
            for ts in stale:
                del self._frag_seen[ts]
                self.frames_dropped_fragments += 1
        else:
            self._frag_seen[timestamp] = seen

    def peek_interval_loss(self):
        if self.highest_seq is None or self.base_seq is None:
            return 0.0
        interval_expected = self.expected - self.interval_expected_base
        if interval_expected <= 0:
            return 0.0
        lost = max(0, interval_expected - self.interval_received)
        return min(1.0, lost / interval_expected)

    def snapshot_interval(self):
        if self.highest_seq is None or self.base_seq is None:
            return 0.0, 0
        expected_now = self.expected
        interval_expected = expected_now - self.interval_expected_base
        received = self.interval_received
        self.interval_expected_base = expected_now
        self.interval_received = 0
        if interval_expected <= 0:
            return 0.0, received
        lost = max(0, interval_expected - received)
        return min(1.0, lost / interval_expected), received


#: every field and property of today's stats, and what each must equal
#: on the reference: its namesake, or what it is derived from
STATS_NAMES = sorted(
    [f.name for f in dataclasses.fields(RtpReceiverStats)]
    + [name for name, value in vars(RtpReceiverStats).items()
       if isinstance(value, property)])
DERIVED = {
    "interval_received_base":
        lambda ref: ref.packets_received - ref.interval_received,
    "frames_done": lambda ref: ref.frames_done,
}


def _assert_same(ref, rx):
    for name in STATS_NAMES:
        want = DERIVED[name](ref) if name in DERIVED else getattr(ref, name)
        got = getattr(rx.stats, name)
        if name == "frames_done":
            got = list(got)
        assert got == want, name
    assert rx.jitter_s == ref.jitter.jitter_s
    assert rx.frames_done is rx.stats.frames_done
    assert rx.frames_stale == ref.frames_stale


def _stream(draw):
    """Packets ``(seq, timestamp, fragment_index, fragment_count,
    frame_seq, sent_at)`` as a sender emits them: consecutive sequence
    numbers within a frame, any jump (a failover sender) between."""
    seq = draw(st.one_of(st.integers(0, SEQ_MODULUS - 1),
                         st.integers(SEQ_MODULUS - 40, SEQ_MODULUS - 1)))
    packets = []
    for frame_seq in range(draw(st.integers(1, 25))):
        seq = (seq + draw(st.one_of(
            st.just(0), st.integers(-40_000, 40_000),
            st.sampled_from([32_767, 32_768, -32_768])))) % SEQ_MODULUS
        count = draw(st.integers(1, 4))
        for index in range(count):
            packets.append((seq, frame_seq * TICKS, index, count, frame_seq,
                            frame_seq * 0.04))
            seq = (seq + 1) % SEQ_MODULUS
    return packets


@st.composite
def _arrivals(draw):
    """The stream after the network: each packet lost, delivered once or
    twice after its own delay (so reordered), and RTCP reads between."""
    actions = []
    for packet in _stream(draw):
        for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2)))):
            delay = draw(st.floats(0.001, 0.3, allow_nan=False))
            actions.append((packet[-1] + delay, packet))
    reads = draw(st.lists(st.tuples(st.floats(0.0, 1.5, allow_nan=False),
                                    st.sampled_from(("snapshot", "peek"))),
                          max_size=12))
    return actions + reads


def _run(actions):
    """Both receivers fed the same arrivals and reads in time order;
    returns their read results."""
    sim = Simulator()
    net = Network(sim)
    net.add_node("cli")
    rx = RtpReceiver(net, "cli", 5004, CLOCK, "v")
    ref = CounterReceiver(CLOCK)
    node = net.node("cli")
    reads = []

    def arrive(packet):
        seq, timestamp, index, count, frame_seq, sent_at = packet
        pkt = Packet("srv", "cli", 112, "RTP", "v", 5004,
                     RtpPacket(1, 32, seq, timestamp, index == count - 1, 100,
                               index, count),
                     seq, "s", frame_seq, sent_at)
        ref.on_packet(pkt, sim.now)
        node.deliver(pkt)
        _assert_same(ref, rx)

    def read(kind):
        if kind == "snapshot":
            reads.append((ref.snapshot_interval(), rx.snapshot_interval()))
        else:
            reads.append((ref.peek_interval_loss(), rx.peek_interval_loss()))
        _assert_same(ref, rx)

    for when, what in actions:
        sim.call_at(when, arrive if isinstance(what, tuple) else read, what)
    sim.run()
    _assert_same(ref, rx)
    return ref, rx, reads


@settings(max_examples=300, deadline=None)
@given(_arrivals())
def test_receiver_matches_the_per_packet_counters(actions):
    _ref, _rx, reads = _run(actions)
    for want, got in reads:
        assert got == want


def test_a_fixed_stream_exercises_every_branch():
    """The generated comparison is not vacuous: this stream wraps past
    65535, loses seqs 1 and 3, reorders a frame's two fragments,
    duplicates a packet, carries one seq more than half the sequence
    space behind the highest, leaves two frames incomplete and reads
    RTCP between arrivals."""
    sent = [(65534, 0, 0, 1, 0, 0.0), (65535, 3600, 0, 2, 1, 0.04),
            (0, 3600, 1, 2, 1, 0.04), (1, 7200, 0, 1, 2, 0.08),
            (2, 10800, 0, 2, 3, 0.12), (3, 10800, 1, 2, 3, 0.12),
            (4, 14400, 0, 1, 4, 0.16), (40_000, 18000, 0, 1, 5, 0.2),
            (5, 21600, 0, 1, 6, 0.24)]
    actions = [(0.01, sent[0]), (0.06, sent[2]), (0.065, sent[1]),
               (0.1, "snapshot"), (0.13, sent[4]), (0.14, "peek"),
               (0.17, sent[6]), (0.18, sent[6]), (0.2, "snapshot"),
               (0.22, sent[7]), (0.25, sent[8]), (0.3, "snapshot")]
    _ref, rx, reads = _run(actions)
    assert reads == [((0.0, 3),) * 2, (0.5, 0.5), ((0.25, 3),) * 2,
                     ((0.0, 2),) * 2]
    stats = rx.stats
    assert (stats.base_seq, stats.highest_seq) == (65534, 65541)
    # the duplicate and the stray seq hide the two losses, as the RFC's
    # expected-minus-received count does
    assert stats.packets_received == stats.expected == 8
    assert stats.cumulative_lost == 0
    # frame 4 completes twice (its one packet came twice); frames 1 and 3
    # never do: 1's marker fragment came first, 3 lost a fragment
    assert list(rx.frames_done) == [0, 4, 4, 5, 6]
    assert rx.frames_stale == {3600, 10800}
    assert stats.frames_dropped_fragments == 2
    assert rx.jitter_s > 0


# ------------------------------------------------------------------ sender
def _frame(seq, size):
    return Frame("v", seq=seq, media_time=seq * TICKS, duration=TICKS,
                 size_bytes=size, kind=FrameKind.P)


def _sender(first_seq=0):
    sim = Simulator()
    net = Network(sim)
    net.add_node("srv")
    net.add_node("cli")
    net.add_link("srv", "cli", 100e6, 0.001, queue_packets=100_000)
    got = []
    net.node("cli").bind(5004, got.append)
    tx = RtpSender(net, "srv", 5005, "cli", 5004, ssrc=7, payload_type=32,
                   stream_id="v",
                   session="s", first_seq=first_seq)
    return sim, net, tx, got


@settings(max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(1, 20_000), min_size=1, max_size=6),
       mtu=st.integers(50, 3_000),
       first_seq=st.integers(SEQ_MODULUS - 64, SEQ_MODULUS + 64))
def test_every_header_a_sender_emits_passes_the_checking_constructor(
        sizes, mtu, first_seq):
    sim, _net, tx, got = _sender(first_seq)
    with mock.patch.object(rtp_session, "MTU_PAYLOAD", mtu):
        for i, size in enumerate(sizes):
            tx.send_frame(_frame(i, size))
    sim.run()
    assert len(got) == tx.packet_count
    for k, pkt in enumerate(got):
        rtp = pkt.payload
        assert type(rtp) is RtpPacket
        assert RtpPacket(*rtp) == rtp
        assert rtp.seq == (first_seq + k) % SEQ_MODULUS == pkt.seq
        assert pkt.size_bytes == rtp.size_bytes
        assert (rtp.frame is not None) == rtp.marker == (
            rtp.fragment_index == rtp.fragment_count - 1)
    assert sum(pkt.payload.payload_bytes for pkt in got) == sum(sizes)


@pytest.mark.parametrize("size", [0, -5])
def test_an_empty_frame_is_refused_before_anything_is_sent(size):
    sim, net, tx, got = _sender()
    tx.send_frame(_frame(0, 500))
    with pytest.raises(ValueError, match="payload_bytes must be positive"):
        tx.send_frame(_frame(1, size))
    sim.run()
    assert [pkt.payload.seq for pkt in got] == [0]
    assert list(net.frames_sent["s"]) == ["v", 0, 0.0]
    assert (tx.packet_count, tx._seq) == (1, 1)
