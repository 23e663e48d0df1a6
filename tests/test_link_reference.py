"""Referee: today's one-entry link against the two-entry link it replaced.

A link used to schedule two calls per packet-hop: ``_tx_done`` when the
packet left the transmitter (counting the transmission and starting the
next queued packet) and ``_propagated`` when it reached the far end.
A FIFO transmitter knows the departure when it accepts the packet, so
:class:`~repro.net.link.Link` now schedules the arrival alone and counts
transmissions lazily. :class:`TwoEntryLink` below is the old link, kept
as the reference; it is not part of the package.

Generated single-link runs with dyadic times and sizes -- so arrivals,
departures, reads and fault edges really tie -- must give the same
arrivals, drops, enqueue depths and counters (``busy_time`` with ``==``)
on both, and at every read the new heap must hold exactly one entry more
per packet waiting in the old link's queue. Both are driven with packets
for their own ``b``, so both hand every survivor to ``on_arrival``.

A link also forwards by itself: on a network a packet arriving at a node
it is not addressed to is offered to the next link there, with no
closure in between; ``test_forwarding_is_the_link_itself`` holds that
path to the trace the closure gave.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import RngRegistry, Simulator
from repro.net.atm import AtmLink, cells_for
from repro.net.impairments import GilbertElliottLoss
from repro.net.link import Link, LinkStats
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.obs.tracer import RecordingTracer
from tests.helpers import select

RATE = 8192.0              # bit/s: a 32-byte packet takes 1/32 s
TICK = 1 / 32


class TwoEntryLink:
    """The link with a busy flag, a drop-tail ``deque`` and two calls
    per packet-hop, as it was before transmissions were settled lazily,
    with its own arrival hook: fault drop, then one loss draw, then
    ``on_arrival`` (fault drops as :class:`Link`'s)."""

    _drop_down = Link._drop_down
    name = Link.name

    def __init__(self, sim, src, dst, rate_bps, delay_s, queue_packets=100,
                 loss_model=None):
        self.sim, self.src, self.dst = sim, src, dst
        self.rate_bps, self.delay_s = float(rate_bps), float(delay_s)
        self.queue_packets = queue_packets
        self._queue: deque[Packet] = deque()
        self._busy = False
        self.loss_model = loss_model
        self.up = True
        self.stats = self._stats = LinkStats()
        self.on_arrival = self.on_drop = None

    def serialization_delay(self, size_bytes):
        return size_bytes * 8.0 / self.rate_bps

    def set_up(self, up):
        self.up = up

    def enqueue(self, pkt):
        if not self.up:
            self._drop_down(pkt)
            return False
        if not self._busy:
            self._busy = True
            ser = self.serialization_delay(pkt.size_bytes)
            self.sim.call_later(ser, self._tx_done, pkt, ser)
        elif len(self._queue) < self.queue_packets:
            self._queue.append(pkt)
        else:
            self.stats.queue_drops += 1
            if self.on_drop is not None:
                self.on_drop(pkt, "drop-queue")
            return False
        if self.sim._tracing_detail:
            self.sim._tracer.emit(self.sim.now, "link.enqueue", self.name,
                                  depth=len(self._queue), flow=pkt.flow_id,
                                  seq=pkt.seq, session=pkt.session,
                                  frame=pkt.frame_seq)
        return True

    def _tx_done(self, pkt, ser):
        stats = self.stats
        stats.busy_time += ser
        stats.tx_packets += 1
        stats.tx_bytes += pkt.size_bytes
        # at equal fire times this packet's arrival precedes the next
        # packet's _tx_done
        self.sim.call_later(self.delay_s, self._propagated, pkt)
        if self._queue:
            pkt = self._queue.popleft()
            ser = self.serialization_delay(pkt.size_bytes)
            self.sim.call_later(ser, self._tx_done, pkt, ser)
        else:
            self._busy = False

    def _propagated(self, pkt):
        if not self.up:
            self._drop_down(pkt)
            return
        if self.loss_model is not None and self._lost(pkt):
            self.stats.loss_drops += 1
            if self.on_drop is not None:
                self.on_drop(pkt, "drop-loss")
            return
        self.on_arrival(pkt)

    def _lost(self, pkt):
        if self.sim._tracing_detail:
            return self.loss_model.is_lost(flow=pkt.flow_id, seq=pkt.seq,
                                           session=pkt.session,
                                           frame=pkt.frame_seq)
        return self.loss_model.is_lost()


class TwoEntryAtmLink(TwoEntryLink):
    """:class:`AtmLink`'s cell tax and per-cell loss on the old link."""

    serialization_delay = AtmLink.serialization_delay

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cells_tx = self.cell_loss_events = 0

    def _propagated(self, pkt):
        if self.up:
            self.cells_tx += cells_for(pkt.size_bytes)
        super()._propagated(pkt)

    def _lost(self, pkt):
        lost = sum(self.loss_model.is_lost()
                   for _ in range(cells_for(pkt.size_bytes)))
        self.cell_loss_events += lost
        return lost > 0


def _run(cls, offers, queue_packets, delay_s, windows=(), reads=(),
         loss_seed=None, order=None):
    """One link of class ``cls`` under a fixed schedule, every arrival,
    fault edge and read pushed before the run. Returns arrivals, drops,
    traced enqueue depths, reads ``(now, stats, heap entries, packets in
    the old link's queue)`` and the link."""
    sim = Simulator()
    tracer = RecordingTracer()
    sim.set_tracer(tracer)
    loss = None if loss_seed is None else GilbertElliottLoss(
        RngRegistry(loss_seed).stream("loss", private=True),
        p_gb=0.2, p_bg=0.3, loss_bad=0.5)
    link = cls(sim, "a", "b", RATE, delay_s, queue_packets=queue_packets,
               loss_model=loss)
    arrivals, drops, seen = [], [], []
    link.on_arrival = lambda p: arrivals.append((p.seq, sim.now))
    link.on_drop = lambda p, why: drops.append((p.seq, why, sim.now))

    def read():
        seen.append((sim.now, replace(link.stats), len(sim._heap),
                     len(getattr(link, "_queue", ()))))

    actions = [(t, link.enqueue, Packet(src="a", dst="b", size_bytes=size,
                                        protocol="UDP", flow_id="f",
                                        dst_port=1, seq=seq))
               for seq, (t, size) in enumerate(offers)]
    for start, length in windows:
        actions += [(start, link.set_up, False),
                    (start + length, link.set_up, True)]
    actions += [(t, read) for t in reads]
    actions.append((10_000, read))          # after everything
    for k in (order or range(len(actions))):
        t, fn, *args = actions[k]
        sim.call_later(t * TICK, fn, *args)
    sim.run()
    depths = [e.args["depth"] for e in select(tracer, kind="link.enqueue")]
    return arrivals, drops, depths, seen, link


def _assert_same(ref, new):
    arrivals, drops, depths, seen, _ = ref
    assert new[0] == arrivals
    assert new[1] == drops
    assert new[2] == depths
    assert len(new[3]) == len(seen)
    for (t, stats, heap, waiting), (t_new, stats_new, heap_new, _) in zip(
            seen, new[3]):
        assert t_new == t
        assert stats_new == stats, t      # busy_time included, with ==
        assert heap_new == heap + waiting, t


@st.composite
def _cases(draw):
    offers = draw(st.lists(st.tuples(st.integers(0, 95),
                                     st.sampled_from((32, 64, 128, 256))),
                           min_size=1, max_size=40))
    windows = draw(st.lists(st.tuples(st.integers(0, 95),
                                      st.integers(1, 24)), max_size=2))
    reads = draw(st.lists(st.integers(0, 140), max_size=12))
    n_actions = len(offers) + 2 * len(windows) + len(reads) + 1
    return dict(
        offers=offers, windows=windows, reads=reads,
        queue_packets=draw(st.integers(1, 8)),
        delay_s=draw(st.sampled_from((0.0, TICK, 4 * TICK, 8 * TICK))),
        loss_seed=draw(st.none() | st.integers(0, 2**16)),
        order=draw(st.permutations(range(n_actions))))


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_one_entry_link_matches_the_two_entry_link(case):
    _assert_same(_run(TwoEntryLink, **case), _run(Link, **case))


def test_a_fixed_case_exercises_every_tie_and_drop():
    """The generated comparison is not vacuous: on this schedule packets
    queue and tail-drop, one is lost, two die on a downed link, and a
    read and an arrival land on the instant a transmission ends."""
    offers = [(0, 128)] * 6 + [(4, 32), (20, 64), (20, 64), (32, 256),
                               (40, 256), (43, 32)]
    case = dict(offers=offers, queue_packets=3, delay_s=4 * TICK,
                windows=[(42, 4)], reads=[0, 4, 8, 12, 24, 40, 44, 60],
                loss_seed=7)
    ref = _run(TwoEntryLink, **case)
    _assert_same(ref, _run(Link, **case))
    arrivals, drops, depths, seen, link = ref
    kinds = {why for _, why, _ in drops}
    assert kinds == {"drop-queue", "drop-loss", "drop-down"}
    assert max(depths) == 3
    departures = {t - 4 * TICK for _, t in arrivals}
    assert departures & {t for t, *_ in seen}     # a read at a departure
    assert departures & {t * TICK for t, _ in offers}  # an arrival too
    assert any(waiting for *_, waiting in seen)


def test_atm_link_matches_the_two_entry_link():
    """The cell tax and per-cell loss ride the same departure records."""
    offers = [(0, 480), (0, 47), (0, 1000), (3, 96), (40, 480)]
    case = dict(offers=offers, queue_packets=2, delay_s=TICK,
                reads=[0, 10, 30, 50], loss_seed=5)
    ref = _run(TwoEntryAtmLink, **case)
    new = _run(AtmLink, **case)
    _assert_same(ref, new)
    assert (new[4].cells_tx, new[4].cell_loss_events) == (
        ref[4].cells_tx, ref[4].cell_loss_events)
    assert new[4].stats.tx_packets == 4 and new[3][-1][1].busy_time > 0
    # a cell loss kills its packet once, counted with the transmissions
    # settled as they were (the final read compares the whole counters)
    assert [why for _, why, _ in new[1]].count("drop-loss") == \
        new[4].stats.loss_drops >= 1


#: ``(time, kind, link, node, args)`` of every ``link.enqueue`` /
#: ``net.deliver`` / ``net.rx_discard`` of the chain below, as the
#: network traced them while each hop's arrival went through a
#: forwarding closure (commit 8c380ad)
CHAIN_TRACE = [
    (0.0, "link.enqueue", "a->r", "",
     {"depth": 0, "flow": "f", "seq": 0, "frame": -1}),
    (0.0, "link.enqueue", "a->r", "",
     {"depth": 1, "flow": "f", "seq": 1, "frame": -1}),
    (0.0, "link.enqueue", "a->r", "",
     {"depth": 2, "flow": "f", "seq": 2, "frame": -1}),
    (0.09375, "link.enqueue", "r->b", "",
     {"depth": 0, "flow": "f", "seq": 0, "frame": -1}),
    (0.125, "link.enqueue", "r->b", "",
     {"depth": 1, "flow": "f", "seq": 1, "frame": -1}),
    (0.125, "net.deliver", "", "b",
     {"port": 1, "flow": "f", "seq": 0, "frame": -1}),
    (0.140625, "net.deliver", "", "b",
     {"port": 404, "flow": "f", "seq": 1, "frame": -1}),
    (0.140625, "net.rx_discard", "", "b",
     {"port": 404, "seq": 1, "flow": "f", "frame": -1}),
    (0.25, "link.enqueue", "r->b", "",
     {"depth": 0, "flow": "f", "seq": 2, "frame": -1}),
    (0.3125, "net.deliver", "", "b",
     {"port": 1, "flow": "f", "seq": 2, "frame": -1}),
]


def test_forwarding_is_the_link_itself():
    """On a traced chain a -> r -> b the link into ``r`` offers each
    packet to ``r -> b`` and the link into ``b`` delivers it: two hops
    per packet, the closure's trace event for event, and a packet for an
    unbound port discarded and counted as before."""
    sim = Simulator()
    tracer = RecordingTracer()
    sim.set_tracer(tracer)
    net = Network(sim)
    for node in ("a", "r", "b"):
        net.add_node(node)
    net.add_duplex_link("a", "r", RATE, TICK, queue_packets=2)
    net.add_duplex_link("r", "b", 2 * RATE, 0.0)
    got = []
    net.node("b").bind(1, lambda p: got.append((p.seq, sim.now)))
    for seq, (size, port) in enumerate(
            ((64, 1), (32, 404), (128, 1), (32, 1), (64, 1))):
        net.send(Packet("a", "b", size, "UDP", "f", port, seq=seq))
    sim.run()
    assert got == [(0, 4 * TICK), (2, 10 * TICK)]
    assert [(e.time, e.kind, e.name, e.node, e.args)
            for e in tracer.events
            if e.kind in ("link.enqueue", "net.deliver", "net.rx_discard")
            ] == CHAIN_TRACE
    b = net.node("b")
    assert b.rx_discarded == 1
    assert net.tap.count_by_flow == {"UDP": {"f": 3}}
    assert net.links[("a", "r")].stats.queue_drops == 2
    assert sum(link.stats.queue_drops + link.stats.loss_drops
               + link.stats.fault_drops for link in net.links.values()) == 2
    assert net.links[("r", "b")].on_arrival == b.deliver
