"""Closed-form oracle for one link (ROADMAP 4b).

A FIFO link with a bounded drop-tail queue has an exact answer for
every packet: it leaves the transmitter at
``max(arrival, previous departure) + size * 8 / rate`` and reaches the
far end ``delay`` later, unless ``queue_packets`` others were already
waiting behind the one in service. The numbers below are powers of two
so the expected times are exact floats and ``==`` is the right test.
"""

from __future__ import annotations

import random

import pytest

from repro.des import Simulator
from repro.net.atm import CELL_BYTES, AtmLink
from repro.net.link import Link
from repro.net.packet import Packet
from repro.obs.tracer import RecordingTracer

SIZE = 128                 # bytes -> 1024 bits
RATE = 8192.0              # bit/s -> 0.125 s per packet
SER = SIZE * 8 / RATE
DELAY = 0.25


def _pkt(seq: int, size: int = SIZE) -> Packet:
    return Packet(src="a", dst="b", size_bytes=size, protocol="UDP",
                  flow_id="f", dst_port=1, seq=seq)


def _link(sim, queue_packets=100, cls=Link, **kwargs):
    link = cls(sim, "a", "b", RATE, DELAY, queue_packets=queue_packets,
               **kwargs)
    arrivals, drops = [], []
    link.on_arrival = lambda p: arrivals.append((p.seq, sim.now))
    link.on_drop = lambda p, why: drops.append((p.seq, why, sim.now))
    return link, arrivals, drops


@pytest.mark.parametrize("n, queue", [(3, 4), (5, 4), (10, 4), (10, 1)])
def test_burst_arrival_times_and_drop_tail(n, queue):
    sim = Simulator()
    link, arrivals, drops = _link(sim, queue_packets=queue)
    accepted = []
    sim.call_later(0.0, lambda: accepted.extend(
        link.enqueue(_pkt(k)) for k in range(n)))
    sim.run()

    served = min(n, queue + 1)     # one in service + `queue` waiting
    assert arrivals == [(k, (k + 1) * SER + DELAY) for k in range(served)]
    assert accepted == [True] * served + [False] * (n - served)
    assert drops == [(k, "drop-queue", 0.0) for k in range(served, n)]
    stats = link.stats
    assert stats.queue_drops == n - served
    assert stats.tx_packets == served
    assert stats.tx_bytes == served * SIZE
    assert stats.busy_time == served * SER
    assert stats.utilisation(served * SER) == 1.0
    assert (stats.loss_drops, stats.fault_drops) == (0, 0)


def test_idle_gap_restarts_the_transmitter():
    sim = Simulator()
    link, arrivals, _ = _link(sim)
    for seq, at in enumerate((0.0, 10.0, 10.0)):
        sim.call_later(at, link.enqueue, _pkt(seq))
    sim.run()
    assert arrivals == [(0, SER + DELAY), (1, 10.0 + SER + DELAY),
                        (2, 10.0 + 2 * SER + DELAY)]
    assert link.stats.busy_time == 3 * SER
    assert link.stats.utilisation(sim.now) < 0.05


def test_fifo_delay_matches_the_lindley_recursion():
    """Random sizes and arrival times, queue never full."""
    rng = random.Random(5)
    offered = []
    at = 0.0
    for seq in range(400):
        at += rng.expovariate(1 / (0.9 * SER))     # ~110% load
        offered.append((at, seq, rng.choice((64, 128, 256))))
    sim = Simulator()
    link, arrivals, drops = _link(sim, queue_packets=10_000)
    for at, seq, size in offered:
        sim.call_later(at, link.enqueue, _pkt(seq, size))
    sim.run()

    expected, free_at = [], 0.0
    for at, seq, size in offered:
        free_at = max(at, free_at) + size * 8 / RATE
        expected.append((seq, free_at + DELAY))
    assert not drops
    assert [seq for seq, _ in arrivals] == [seq for seq, _ in expected]
    for (_, got), (_, want) in zip(arrivals, expected):
        assert got == pytest.approx(want, abs=1e-9)
    assert link.stats.busy_time == pytest.approx(
        sum(size * 8 / RATE for _, _, size in offered))


def test_propagation_precedes_the_next_tx_done_at_equal_times():
    """The equal-time rule: with ``delay == ser`` packet 0 arrives at
    the instant packet 1 leaves the transmitter, and arrives first."""
    sim = Simulator()
    link = Link(sim, "a", "b", RATE, SER)
    seen = []
    link.on_arrival = lambda p: seen.append(
        (p.seq, sim.now, link.stats.tx_packets))
    sim.call_later(0.0, lambda: [link.enqueue(_pkt(k)) for k in (0, 1)])
    sim.run()
    assert seen == [(0, 2 * SER, 1), (1, 3 * SER, 2)]


def test_enqueue_depth_and_occupancy_count_waiting_packets_only():
    tracer = RecordingTracer()
    sim = Simulator()
    sim.set_tracer(tracer)
    link, _, _ = _link(sim, queue_packets=2)

    def burst():
        for k in range(4):
            link.enqueue(_pkt(k))
        link.sample_occupancy()

    sim.call_later(0.0, burst)
    sim.call_later(SER + 0.01, link.sample_occupancy)   # one has left
    sim.run()
    # the packet in service is not in the queue; the fourth is dropped
    assert [e.args["depth"] for e in tracer.select(kind="link.enqueue")] \
        == [0, 1, 2]
    assert [e.args["reason"] for e in tracer.select(kind="link.drop")] \
        == ["queue"]
    assert link.stats.occupancy_samples == [(0.0, 2), (SER + 0.01, 1)]
    # links are not processes: nothing was spawned for this one
    assert "process.spawn" not in tracer.kind_counts()


def test_downed_link_drops_at_ingress_and_in_flight():
    sim = Simulator()
    link, arrivals, drops = _link(sim)
    sim.call_later(0.0, lambda: [link.enqueue(_pkt(k)) for k in (0, 1)])
    # packet 0 is propagating, packet 1 still serialising
    sim.call_later(SER + 0.01, link.set_up, False)
    sim.call_later(SER + 0.02, link.enqueue, _pkt(2))
    sim.call_later(5.0, link.set_up, True)
    sim.call_later(5.0, link.enqueue, _pkt(3))
    sim.run()
    assert drops == [(2, "drop-down", SER + 0.02),
                     (0, "drop-down", SER + DELAY),
                     (1, "drop-down", 2 * SER + DELAY)]
    assert arrivals == [(3, 5.0 + SER + DELAY)]
    assert link.stats.fault_drops == 3
    # a queued packet is still serialised by a downed link
    assert link.stats.tx_packets == 3
    assert link.stats.queue_drops == 0


def test_atm_link_pays_the_cell_tax():
    sim = Simulator()
    link, arrivals, _ = _link(sim, cls=AtmLink)
    sim.call_later(0.0, link.enqueue, _pkt(0, size=480))   # 10 cells
    sim.run()
    wire = 10 * CELL_BYTES * 8 / RATE
    assert arrivals == [(0, wire + DELAY)]
    assert link.stats.busy_time == wire
    assert link.stats.tx_bytes == 480
    assert link.cells_tx == 10


@pytest.mark.parametrize("queue_packets", [0, -1])
def test_non_positive_queue_is_rejected(queue_packets):
    with pytest.raises(ValueError):
        Link(Simulator(), "a", "b", RATE, DELAY, queue_packets=queue_packets)


def test_call_later_takes_args_returns_nothing_and_rejects_the_past():
    sim = Simulator()
    got = []
    assert sim.call_later(1.0, got.append, "x") is None
    sim.call_later(2.0, lambda *a: got.append(a), 1, 2)
    with pytest.raises(ValueError):
        sim.call_later(-1, got.append, "never")
    sim.run()
    assert got == ["x", (1, 2)]
    assert sim.now == 2.0
