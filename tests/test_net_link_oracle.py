"""Closed-form oracle for one link (ROADMAP 4b, 2c).

A FIFO link with a bounded drop-tail queue has an exact answer for
every packet: it leaves the transmitter at
``max(arrival, previous departure) + size * 8 / rate`` and reaches the
far end ``delay`` later, unless ``queue_packets`` others were already
waiting behind the one in service. The numbers below are powers of two
so the expected times are exact floats and ``==`` is the right test.

Under random arrivals the answer is a distribution: a
``PoissonTrafficSource`` of fixed-size packets into one link is M/D/1,
whose mean wait is Pollaczek-Khinchine's; and whatever the arrivals,
every packet a source sent is somewhere when the run stops.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.analysis.stats import mean_ci
from repro.des import RngRegistry, Simulator
from repro.net.atm import CELL_BYTES, AtmLink
from repro.net.impairments import GilbertElliottLoss
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.net.traffic import OnOffTrafficSource, PoissonTrafficSource
from repro.obs.flightrec import FlightRecorder
from repro.obs.tracer import RecordingTracer
from tests.helpers import path, select

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
    assert link.stats.busy_time / sim.now < 0.05


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
    the instant packet 1 leaves the transmitter, and packet 1 is still
    in service then -- a departure equal to ``now`` is not counted yet,
    as when it was a ``_tx_done`` event pushed after the arrival."""
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
    sim.call_later(0.0, lambda: [link.enqueue(_pkt(k)) for k in range(4)])
    sim.run()
    # the packet in service is not in the queue; the fourth is dropped
    assert [e.args["depth"] for e in select(tracer, kind="link.enqueue")] \
        == [0, 1, 2]
    assert [e.args["reason"] for e in select(tracer, kind="link.drop")] \
        == ["queue"]
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


# ---------------------------------------------------------------------------
# Stochastic: M/D/1 and conservation
# ---------------------------------------------------------------------------

BATCHES, BATCH = 20, 2500


@pytest.mark.parametrize("rho, seed", [(0.3, 101), (0.6, 102), (0.85, 103)])
def test_poisson_into_one_link_waits_as_pollaczek_khinchine_says(rho, seed):
    """Mean queueing wait of M/D/1: ``rho * S / (2 * (1 - rho))``.

    The interval is derived, not tuned: successive waits are correlated,
    with a relaxation time of about ``1 / (1 - sqrt(rho))**2`` packets
    (~160 at rho 0.85), so the waits are cut into 20 batches of 2500
    consecutive packets -- fifteen relaxation times and more -- whose
    means are as good as independent and normal. Their mean then lies
    within ``t(19) * s / sqrt(20)`` of the true one; at 99.9% that is
    3.88 standard errors, and the three cases together fail a correct
    simulator 3 times in 1000 seeds. These seeds are fixed. One more
    batch, the first, is the warm-up from an empty link and is dropped.
    """
    service = 1000 * 8 / 8e6                      # 1 ms
    delay = 0.002
    sim = Simulator()
    net = Network(sim)
    net.add_node("x")
    net.add_node("y")
    link = net.add_link("x", "y", 8e6, delay, queue_packets=10**9)
    waits = []
    net.node("y").bind(9, lambda pkt: waits.append(
        sim.now - pkt.created_at - service - delay))
    PoissonTrafficSource(net, "x", "y", RngRegistry(seed).stream("arrivals"),
                         rate_bps=rho * 8e6, packet_bytes=1000)
    packets = (BATCHES + 1) * BATCH
    sim.run(until=1.1 * packets * service / rho)
    assert len(waits) >= packets and link.stats.queue_drops == 0
    assert min(waits) > -1e-9
    assert link.stats.busy_time / sim.now == pytest.approx(rho, rel=0.02)

    batch_means = [sum(waits[k:k + BATCH]) / BATCH
                   for k in range(BATCH, packets, BATCH)]
    measured, half_width = mean_ci(batch_means, confidence=0.999)
    expected = rho * service / (2 * (1 - rho))
    assert abs(measured - expected) <= half_width, (measured, expected)
    # and the interval is tight enough to tell M/D/1 from M/M/1, whose
    # mean wait is twice this
    assert half_width < 0.25 * expected


@pytest.mark.parametrize("traced", [True, False],
                         ids=["traced", "untraced"])
def test_every_packet_a_source_sent_is_somewhere_at_the_horizon(traced):
    """Sent = delivered + dropped + pending, with the run cut while both
    sources send and the bottleneck is full: per flow under a detail
    tracer (its ``link.drop`` rows name the flow), in total without one
    (``LinkStats`` and the tap count drops by link and kind). A link
    schedules a packet's arrival when it accepts it, so every pending
    packet -- waiting, being serialised or propagating -- is the
    argument of one heap entry, or waits in the feed or far queue of a
    link a source feeds (``Link._feed`` / ``_far``: the entries it
    stands for were never pushed). Untraced, each source feeds its
    uplink and the router's link to its own target, ``y`` or ``z``,
    and the return from the run has it produce every packet emitted
    before the cut: none exists past it, fed or not."""
    tracer = RecordingTracer()
    sim = Simulator()
    if traced:
        sim.set_tracer(tracer)
    net = Network(sim)
    for node in ("xa", "xb", "r", "y", "z"):
        net.add_node(node)
    net.add_link("xa", "r", 10e6, 0.001)
    net.add_link("xb", "r", 10e6, 0.003)
    rngs = RngRegistry(seed=31)
    net.add_link("r", "y", 2e6, 0.005, queue_packets=6,
                 loss_model=GilbertElliottLoss(
                     rngs.stream("loss", private=True), p_gb=0.05, loss_bad=0.5))
    net.add_link("r", "z", 2e6, 0.005, queue_packets=6)
    sources = [
        PoissonTrafficSource(net, "xa", "y", rngs.stream("a", private=True),
                             rate_bps=1.5e6),
        OnOffTrafficSource(net, "xb", "z", rngs.stream("b", private=True),
                           peak_rate_bps=4e6, on_mean_s=0.05,
                           off_mean_s=0.05, start_at=0.1),
    ]
    sim.run(until=2.0)

    delivered = net.tap.count_by_flow["UDP"]
    in_heap = [arg for _, _, _, args in sim._heap
               for arg in args if isinstance(arg, Packet)]
    in_heap += [pkt for link in net.links.values() if link._feed is not None
                for _, _, pkt in (*link._feed, *link._far)]
    pending = Counter(pkt.flow_id for pkt in in_heap
                      if pkt.created_at <= sim.now)
    stats = [link.stats for link in net.links.values()]
    drops = sum(s.queue_drops + s.loss_drops + s.fault_drops for s in stats)
    if traced:
        dropped = Counter(e.args["flow"]
                          for e in select(tracer, kind="link.drop"))
        assert sum(dropped.values()) == drops
        for src in sources:
            flow = src.flow_id
            assert src.packets_sent == (delivered[flow] + dropped[flow]
                                        + pending[flow]), flow
            assert min(delivered[flow], dropped[flow]) > 0
    else:
        assert sum(src.packets_sent for src in sources) == (
            sum(delivered.values()) + drops + sum(pending.values()))
    # nothing a source sends exists past the cut
    assert all(pkt.created_at <= sim.now for pkt in in_heap)
    for src in sources:
        assert delivered[src.flow_id] > 0
    # once settled, a link holds the packet in service and those waiting
    waiting = sum(max(0, len(link._departures) - 1)
                  for link in net.links.values())
    assert 0 < waiting < sum(pending.values())
    assert sum(s.fault_drops for s in stats) == 0
    assert min(sum(s.queue_drops for s in stats),
               sum(s.loss_drops for s in stats)) > 0
    for src in sources:
        for link in ((src.src, "r"), ("r", src.dst)):
            assert net.links[link]._feeder is (None if traced else src)


# ---------------------------------------------------------------------------
# Tandem: x -> r -> y, the first link planning each packet across the second
# ---------------------------------------------------------------------------

#: ``(rate_bps, delay_s)`` of the three links; ``r -> y`` is the slow,
#: short-queued bottleneck, so the second stage drops
TANDEM = {"x": (8e6, 0.001), "z": (8e6, 0.0015), "y": (2e6, 0.002)}
TANDEM_QUEUE = 3


def _state_at(flaps, t):
    """A link's administrative state at ``t`` under ``(instant, up)``
    flaps, none of them at ``t``."""
    up = True
    for when, state in flaps:
        if when < t:
            up = state
    return up


def _tandem_oracle(offered, flaps_x=(), flaps_y=(),
                   rates=TANDEM, queue=TANDEM_QUEUE):
    """Each packet's fate on ``src -> r -> y`` by the two-stage Lindley
    recursion, drop-tail at the second stage: ``(arrivals, drops)`` as
    ``(seq, instant)`` and ``(seq, why, instant)``. ``offered`` is
    ``(instant, seq, size, src)`` in the order the packets were offered;
    at equal instants ``r`` takes them in that order too."""
    drops, at_r, free = [], [], {}
    for order, (at, seq, size, src) in enumerate(offered):
        rate, delay = rates[src]
        flaps = flaps_x if src == "x" else ()
        if not _state_at(flaps, at):
            drops.append((seq, "drop-down", at))
            continue
        free[src] = max(at, free.get(src, at)) + size * 8.0 / rate
        arrival = free[src] + delay
        if not _state_at(flaps, arrival):
            drops.append((seq, "drop-down", arrival))
        else:
            at_r.append((arrival, order, seq, size))
    rate, delay = rates["y"]
    arrivals, departures = [], []
    for arrival, _, seq, size in sorted(at_r):
        if not _state_at(flaps_y, arrival):
            drops.append((seq, "drop-down", arrival))
        elif sum(1 for d in departures if d >= arrival) > queue:
            drops.append((seq, "drop-queue", arrival))
        else:
            tail = departures[-1] if departures else arrival
            departures.append(max(tail, arrival) + size * 8.0 / rate)
            at_y = departures[-1] + delay
            if _state_at(flaps_y, at_y):
                arrivals.append((seq, at_y))
            else:
                drops.append((seq, "drop-down", at_y))
    return sorted(arrivals, key=lambda a: (a[1], a[0])), sorted(
        drops, key=lambda d: (d[2], d[0]))


def _tandem_run(offered, traced, flaps_x=(), flaps_y=(), rates=TANDEM,
                queue=TANDEM_QUEUE, shortcut_at=None, routed=True,
                fed=False):
    """The same on a network: ``(arrivals, drops, events fired)``; from
    ``shortcut_at`` on, ``r -> w -> y`` is a shorter way to ``y``; if
    ``fed``, ``r`` sends a 1-byte packet of its own to an unbound port
    of ``y`` at 0."""
    sim = Simulator()
    if traced:
        sim.set_tracer(RecordingTracer())
    net = Network(sim)
    for node in ("x", "z", "r", "y"):
        net.add_node(node)
    first = {src: net.add_link(src, "r", *rates[src], queue_packets=10_000)
             for src in ("x", "z")}
    bottleneck = net.add_link("r", "y", *rates["y"], queue_packets=queue)
    if routed:
        # r routes y before anything is sent; unrouted, x -> r routes it
        # when it accepts the first packet, and the runs are the same
        path(net, "r", "y")
    arrivals, drops = [], []
    net.node("y").bind(1, lambda pkt: arrivals.append((pkt.seq, sim.now)))
    for link in net.links.values():
        link.on_drop = lambda p, why: drops.append((p.seq, why, sim.now))
    if fed:
        sim.call_at(0.0, net.send, Packet("r", "y", 1, "UDP", "r", 2))
    for at, seq, size, src in offered:
        sim.call_at(at, net.send,
                    Packet(src, "y", size, "UDP", "f", 1, seq=seq))
    for link, flaps in ((first["x"], flaps_x), (bottleneck, flaps_y)):
        for when, up in flaps:
            sim.call_at(when, link.set_up, up)

    def shortcut():
        net.add_node("w")
        net.add_link("r", "w", 8e6, 0.0002)
        net.add_link("w", "y", 8e6, 0.0002)

    if shortcut_at is not None:
        sim.call_at(shortcut_at, shortcut)
    sim.run()
    if shortcut_at is not None:
        # the later packets went the new way, through w
        assert path(net, "r", "y") == ["r", "w", "y"]
        assert net.links["w", "y"].stats.tx_packets > 0
    return (sorted(arrivals, key=lambda a: (a[1], a[0])),
            sorted(drops, key=lambda d: (d[2], d[0])), sim.events_fired)


def _offered(seed, n=600, z_from=None):
    """Poisson offers to ``x`` (about 120% of the bottleneck) and, from
    ``z_from`` on, as many again to ``z``."""
    rng = random.Random(seed)
    offered = []
    for src, start in (("x", 0.0), ("z", z_from)):
        if start is None:
            continue
        at = start
        for _ in range(n):
            at += rng.expovariate(1 / 0.0033)
            offered.append((at, len(offered), rng.choice((500, 1000, 1500)),
                            src))
    return sorted(offered)


TANDEM_CASES = {
    "one_sender": dict(offered=_offered(41)),
    # z's first packet reaches r while x's plans are pending there
    "second_sender_mid_run": dict(offered=_offered(42, z_from=0.9)),
    "first_link_flapping": dict(
        offered=_offered(43),
        flaps_x=((0.3003, False), (0.3507, True), (0.8001, False),
                 (0.8012, True), (1.2004, False), (1.20061, True))),
    "bottleneck_flapping": dict(
        offered=_offered(44),
        flaps_y=((0.3003, False), (0.3507, True), (0.8001, False),
                 (0.8012, True), (1.2004, False), (1.20061, True))),
}


@pytest.mark.parametrize("case", sorted(TANDEM_CASES))
def test_tandem_fifo_matches_the_two_stage_lindley_recursion(case):
    """Every arrival at ``y`` and every drop, traced (nothing planned)
    and untraced (``x -> r`` plans each packet across ``r -> y``), is
    the recursion's, to the bit; untraced, the hops planned through
    ``r`` fire no entry there."""
    params = TANDEM_CASES[case]
    want = _tandem_oracle(**params)
    arrivals, drops = want
    assert arrivals and {why for _, why, _ in drops} >= {"drop-queue"}
    if "flaps" in case:
        assert "drop-down" in {why for _, why, _ in drops}
    traced = _tandem_run(**params, traced=True)
    planned = _tandem_run(**params, traced=False)
    assert traced[:2] == want
    assert planned[:2] == want
    assert planned[2] < traced[2]


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "planned"])
def test_a_link_down_and_up_within_a_flight_delivers_what_was_in_it(traced):
    """A downed link drops a packet that reaches its far end while it is
    down, not every packet that was propagating when it went down. One
    packet leaves ``x`` at 1 ms and reaches ``r`` at 2 ms: cut at 1.5 ms
    and raised at 1.8 ms, the link delivers it; raised at 3 ms, it drops
    it at 2 ms, one fault drop. A second packet, offered at 10 ms, gets
    through either way."""
    offered = [(0.0, 0, 1000, "x"), (0.01, 1, 1000, "x")]
    short = ((0.0015, False), (0.0018, True))
    arrivals, drops, _ = _tandem_run(offered, traced, flaps_x=short)
    assert (arrivals, drops) == _tandem_oracle(offered, flaps_x=short)
    assert [seq for seq, _ in arrivals] == [0, 1] and drops == []
    long = ((0.0015, False), (0.003, True))
    arrivals, drops, _ = _tandem_run(offered, traced, flaps_x=long)
    assert (arrivals, drops) == _tandem_oracle(offered, flaps_x=long)
    assert [seq for seq, _ in arrivals] == [1]
    assert drops == [(0, "drop-down", 0.002)]


def test_a_plan_below_the_firing_entry_stands_and_one_above_is_withdrawn():
    """A packet from ``z`` reaches ``r`` at exactly the instant the first
    of a burst from ``x``, planned across ``r -> y``, does (``x`` claimed
    that link with a packet of its own before). ``r`` takes the two in
    the order their entries were pushed: offered to ``x`` first, the
    planned packet has the lower seq and keeps its place ahead; to ``z``
    first, the plan is withdrawn and its entry fires after ``z``'s. The
    rest of the burst is withdrawn either way. Powers of two keep every
    instant exact, so the tie is a tie."""
    rates = {"x": (RATE, DELAY), "z": (RATE, DELAY), "y": (RATE / 2, DELAY)}
    claim = [(0.0, 0, SIZE, "x")]
    burst = [(1.0, seq, SIZE, "x") for seq in range(1, 7)]
    foreign = [(1.0, 7, SIZE, "z")]
    for offered in (claim + burst + foreign, claim + foreign + burst):
        want = _tandem_oracle(offered, rates=rates)
        assert [seq for seq, _ in want[0]][:3] == (
            [0, 1, 7] if offered[1][3] == "x" else [0, 7, 1])
        assert want[1]      # the bottleneck's queue overflows
        assert _tandem_run(offered, True, rates=rates)[:2] == want
        assert _tandem_run(offered, False, rates=rates)[:2] == want


def test_plans_follow_the_routes_when_they_change_mid_run():
    """A shorter way from ``r`` to ``y`` opens mid-run: the packets
    planned across ``r -> y`` that have not reached ``r`` yet go the new
    way, as in a run that never planned (the traced one)."""
    offered = _offered(45)
    # while the 151st packet is on x -> r
    at = offered[150][0] + 0.0001
    traced = _tandem_run(offered, True, shortcut_at=at)
    planned = _tandem_run(offered, False, shortcut_at=at)
    assert planned[:2] == traced[:2]
    assert planned[2] < traced[2]
    # the way changed: the later packets lost no time in r -> y's queue
    assert traced[:2] != _tandem_oracle(offered)


def test_a_link_fed_before_any_plan_is_never_planned_across():
    """``r`` sends a packet on ``r -> y`` itself before the first packet
    from ``x`` is offered: that link has been fed, so ``x -> r`` never
    claims it, and the untraced run fires every entry the traced one
    does."""
    offered = _offered(46, n=50)
    traced = _tandem_run(offered, True, fed=True)
    assert _tandem_run(offered, False, fed=True) == traced
    assert traced[:2] == _tandem_oracle(offered)


def test_an_unrouted_router_plans_from_its_first_packet():
    """Without ``path(net, "r", "y")``, ``r``'s table is filled when
    ``x -> r`` accepts the first packet, so that packet is planned across
    ``r -> y`` already: the run fires what a routed one does, fewer
    entries than the traced run."""
    offered = _offered(46, n=50)
    traced = _tandem_run(offered, True, routed=False)
    planned = _tandem_run(offered, False, routed=False)
    assert traced[:2] == planned[:2] == _tandem_oracle(offered)
    assert planned == _tandem_run(offered, False)
    assert planned[2] < traced[2]


@pytest.mark.parametrize("tracer", [None, FlightRecorder, RecordingTracer])
def test_an_entry_for_a_planned_arrival_instant_fires_in_the_plans_order(
        tracer):
    """The one order planning changes. A packet's planned entry at ``y``
    takes its seq when ``x -> r`` accepts the packet, not when it
    reaches ``r``: an entry for the same instant pushed in between fires
    after the delivery, where a run that does not plan (the detail
    tracer's) fires it before. A control-tier ring plans as an untraced
    run does. Powers of two keep every instant exact."""
    sim = Simulator()
    if tracer is not None:
        sim.set_tracer(tracer())
    net = Network(sim)
    for node in "xry":
        net.add_node(node)
    net.add_link("x", "r", RATE, DELAY)
    net.add_link("r", "y", RATE, DELAY)
    path(net, "r", "y")
    order = []
    net.node("y").bind(1, lambda pkt: order.append(("delivery", sim.now)))
    sim.call_at(0.0, net.send, Packet("x", "y", SIZE, "UDP", "f", 1, seq=0))
    # pushed while the packet is on x -> r (it reaches r at 0.375), for
    # the instant it reaches y
    sim.call_at(0.25, sim.call_at, 0.75,
                lambda: order.append(("timer", sim.now)))
    sim.run()
    unplanned = [("timer", 0.75), ("delivery", 0.75)]
    if tracer is RecordingTracer:
        assert order == unplanned and sim.events_fired == 5
    else:
        assert order == unplanned[::-1] and sim.events_fired == 4
