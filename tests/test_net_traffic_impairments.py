"""Unit tests for traffic sources and the Gilbert–Elliott model.

The sources were generator processes drawing one numpy scalar per
packet and sending through a ``DatagramSocket``; they are callback
chains drawing in blocks now. The old loops are kept *here*,
verbatim, as the reference (``_reference_source``): same topology, same
seed, and the new sources must emit the same packets at the same
instants, leave the same ``LinkStats`` (at the horizon and at every
read in between), the same tap and the same discards at ``y``, read by
read. Where ``y`` binds port 9 a source sends each packet at its
instant, and the run fires what the reference's fires, entry for entry.
Where ``y`` binds no port 9 a source feeds its uplink and ``r -> y``:
it keeps no entry per step, and whoever touches either link has it
produce the packets emitted before then, admitted to the uplink and
appended to ``r -> y``'s feed, so the run fires fewer heap entries.
"""

import dataclasses
import random
from collections import deque
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.des import RngRegistry, Simulator
from repro.net import (
    DatagramSocket,
    GilbertElliottLoss,
    Network,
    OnOffTrafficSource,
    PoissonTrafficSource,
)
from repro.net.packet import Packet
from repro.obs.flightrec import FlightRecorder
from repro.obs.tracer import RecordingTracer
from tests.helpers import never_planning, select


def build_net():
    sim = Simulator()
    net = Network(sim)
    net.add_node("x")
    net.add_node("y")
    net.add_duplex_link("x", "y", 10e6, 0.001, queue_packets=10_000)
    return sim, net


def test_poisson_rate_on_target():
    sim, net = build_net()
    rng = RngRegistry(seed=9).stream("poisson")
    src = PoissonTrafficSource(net, "x", "y", rng, rate_bps=1_000_000,
                               packet_bytes=1000, stop_at=60.0)
    sim.run(until=61.0)
    sent_bps = src.packets_sent * 1000 * 8 / 60.0
    assert sent_bps == pytest.approx(1_000_000, rel=0.1)


def test_poisson_respects_start_and_stop():
    sim, net = build_net()
    rng = RngRegistry(seed=9).stream("poisson2")
    src = PoissonTrafficSource(net, "x", "y", rng, rate_bps=5_000_000,
                               start_at=10.0, stop_at=20.0)
    sim.run(until=9.9)
    assert src.packets_sent == 0
    sim.run(until=30.0)
    first = src.packets_sent
    sim.run(until=40.0)
    assert src.packets_sent == first  # stopped


def test_onoff_mean_rate_reflects_duty_cycle():
    sim, net = build_net()
    rng = RngRegistry(seed=4).stream("onoff")
    src = OnOffTrafficSource(net, "x", "y", rng, peak_rate_bps=2_000_000,
                             on_mean_s=0.5, off_mean_s=0.5,
                             packet_bytes=500, stop_at=120.0)
    sim.run(until=121.0)
    sent_bps = src.packets_sent * 500 * 8 / 120.0
    assert sent_bps == pytest.approx(1_000_000, rel=0.25)


def test_two_sources_on_one_host_bind_nothing():
    """A source never receives, so it holds no port to collide on."""
    sim, net = build_net()
    reg = RngRegistry(seed=4)
    sources = [
        OnOffTrafficSource(net, "x", "y", reg.stream(name),
                           peak_rate_bps=1e6, stop_at=1.0)
        for name in ("a", "b")]
    sim.run(until=30.0)
    assert all(src.packets_sent > 0 and src.done.triggered
               for src in sources)
    assert net.node("x").bound_ports() == []
    assert net.node("y").bound_ports() == []
    assert net.node("y").rx_discarded == sum(s.packets_sent for s in sources)


def test_traffic_validation():
    sim, net = build_net()
    rng = RngRegistry(seed=1).stream("r")
    with pytest.raises(ValueError):
        PoissonTrafficSource(net, "x", "y", rng, rate_bps=0)
    with pytest.raises(ValueError):
        OnOffTrafficSource(net, "x", "y", rng, peak_rate_bps=0)
    with pytest.raises(ValueError):
        OnOffTrafficSource(net, "x", "y", rng, peak_rate_bps=1e6, on_mean_s=0)
    with pytest.raises(ValueError):
        PoissonTrafficSource(net, "x", "x", rng, rate_bps=1e6)
    with pytest.raises(KeyError):
        PoissonTrafficSource(net, "nowhere", "y", rng, rate_bps=1e6)
    with pytest.raises(TypeError):  # the port a source used to bind
        PoissonTrafficSource(net, "x", "y", rng, rate_bps=1e6, port=9)


def test_gilbert_elliott_stationary_rate():
    rng = RngRegistry(seed=3).stream("ge")
    ge = GilbertElliottLoss(rng, p_gb=0.1, p_bg=0.4, loss_bad=0.5)
    expected = (0.1 / 0.5) * 0.5  # pi_b * loss_bad
    n = 50_000
    losses = sum(ge.is_lost() for _ in range(n))
    assert losses / n == pytest.approx(expected, rel=0.15)


def test_gilbert_elliott_burstiness():
    """Losses should cluster: P(loss | previous loss) > P(loss)."""
    rng = RngRegistry(seed=6).stream("ge2")
    ge = GilbertElliottLoss(rng, p_gb=0.02, p_bg=0.2, loss_bad=0.5)
    seq = [ge.is_lost() for _ in range(100_000)]
    overall = sum(seq) / len(seq)
    after_loss = [b for a, b in zip(seq, seq[1:]) if a]
    conditional = sum(after_loss) / len(after_loss)
    assert conditional > 2 * overall


def test_gilbert_elliott_validation():
    rng = RngRegistry(seed=1).stream("x")
    with pytest.raises(ValueError):
        GilbertElliottLoss(rng, p_gb=1.5)


def test_gilbert_elliott_keeps_the_name_it_was_given():
    rng = RngRegistry(seed=1).stream("x")
    assert GilbertElliottLoss(rng, name="x").name == "x"
    with pytest.raises(ValueError, match="loss_bad must be a probability"):
        GilbertElliottLoss(rng, loss_bad=2.0, name="x")


def test_traced_impair_events_carry_the_engines_stream_names():
    tracer = RecordingTracer()
    eng = ServiceEngine(EngineConfig(seed=11, loss_p_gb=0.02, loss_bad=0.3),
                        tracer=tracer)
    eng.add_server("srv1", documents={"doc": (av_markup(2.0, False), "t")})
    eng.orchestrator.run_population(3, "srv1", "doc", stagger_s=0.2)
    for kind in ("impair.state", "impair.loss"):
        names = {e.name for e in select(tracer, kind=kind)}
        assert names == {f"access-loss:client{i}" for i in (1, 2, 3)}, kind
        assert names <= set(eng.rng.names())


# ---------------------------------------------------------------------------
# The referee: the generator / scalar-draw code the sources and the loss
# chain replaced, kept only here
# ---------------------------------------------------------------------------

def _reference_source(net, src, dst, rng, kind, *, packet_bytes=1000,
                      start_at=0.0, stop_at=float("inf"), rate_bps=0.0,
                      on_mean_s=1.0, off_mean_s=1.0, port=9, bursts=None,
                      emitted=None):
    """The sources as they were: one process, one ``Timeout`` and one
    scalar ``rng.exponential`` per packet, a socket bound at ``port``.
    ``bursts`` collects each ON period as ``(start, end)``, ``emitted``
    each emission instant."""
    sim = net.sim
    DatagramSocket(net, src, port=port)
    sent = [0]

    def emit():
        sent[0] += 1
        if emitted is not None:
            emitted.append(sim.now)
        net.send(Packet(src=src, dst=dst, size_bytes=packet_bytes,
                        protocol="UDP", flow_id=f"xtraffic:{src}->{dst}",
                        dst_port=9, seq=sent[0]))

    def poisson():
        mean = packet_bytes * 8.0 / rate_bps
        if start_at > 0:
            yield sim.timeout(start_at)
        while sim.now < stop_at:
            yield sim.timeout(float(rng.exponential(mean)))
            if sim.now >= stop_at:
                break
            emit()

    def onoff():
        interval = packet_bytes * 8.0 / rate_bps
        if start_at > 0:
            yield sim.timeout(start_at)
        while sim.now < stop_at:
            on_len = float(rng.exponential(on_mean_s))
            burst_end = sim.now + on_len
            if bursts is not None:
                bursts.append((sim.now, burst_end))
            while sim.now < burst_end and sim.now < stop_at:
                emit()
                yield sim.timeout(interval)
            yield sim.timeout(float(rng.exponential(off_mean_s)))

    sim.process({"poisson": poisson, "onoff": onoff}[kind]())
    return sent


class Run(NamedTuple):
    #: ``(emit instant, seq, arrival instant)`` of each packet at ``y``
    seen: list
    #: every link's ``LinkStats`` at the horizon
    stats: dict
    packets_sent: int
    events_fired: int
    #: each mid-run read: every link's stats and each source's count
    reads: list
    #: packets offered to the uplink from an entry at their emission
    #: instant (all of the reference's); the rest were produced by a fed
    #: source
    sent_at_instant: int
    #: the detail tracer's link rows, ``(time, kind, name, args)``
    link_rows: list
    #: entries fired at ``r``: the uplink's ``_propagated`` calls, the
    #: planned arrivals that enter a link out of ``r`` through its
    #: ``enqueue`` directly, and the queue drops of those links that
    #: ``enqueue`` did not make. A packet the uplink planned across one
    #: fires none there unless it is dropped there; a packet fed to
    #: ``r -> y`` fires none there either, and none at ``y``
    entries_at_r: int
    #: at the horizon: the tap's UDP deliveries by flow, its bytes by
    #: protocol and ``y``'s discards (an unbound target's arrivals)
    discards: tuple
    #: packets fed to ``r -> y``, and those still in its feed or far
    #: queue at the horizon (their seqs are taken, their entries never
    #: pushed)
    fed: int
    pending_fed: int
    #: the clock at the end of the run (the last entry's, drained)
    now: float
    #: ``(emit instant, seq)`` of each packet sent from ``x`` by the
    #: horizon, offered to the uplink or fed to ``r -> y``
    sent: list


class _CountingFeed(deque):
    """A link's feed that counts and keeps what sources append to it."""

    def __init__(self):
        super().__init__()
        self.packets = []

    def append(self, item):
        self.packets.append(item[2])
        super().append(item)

    def __iadd__(self, items):  # a batch at once
        for item in items:
            self.append(item)
        return self


def _bottleneck_run(kind, reference, horizon, *, uplink_queue=100,
                    sources=1, read_every=0.0, flaps=(), traced=False,
                    shortcut_at=None, unbound=False, bind_at=None,
                    bottleneck_flaps=(), bottleneck_loss=False,
                    second_host_at=None, r_sends_every=0.0, **params):
    """``x -> r -> y`` with a slow, short-queued second hop, so the
    links' statistics include drops: ``sources`` sources on host ``x``,
    ``uplink_queue`` packets of queue on ``x -> r`` and its ``flaps``
    as ``(instant, up)``; every link's stats, each source's
    ``packets_sent``, the tap and ``y``'s discards read each
    ``read_every`` seconds, under a detail tracer if ``traced``; from
    ``shortcut_at`` on, ``r -> w -> y`` is a faster way to ``y``.

    ``y`` binds the sources' port 9 unless ``unbound``, then at
    ``bind_at`` if that is set: until then the packets are discarded
    there, and a source feeds them to ``r -> y``. ``bottleneck_flaps``
    cut and raise ``r -> y``, ``bottleneck_loss`` gives it a
    Gilbert-Elliott chain, and ``second_host_at`` starts one more
    source then, on host ``v`` behind its own uplink to ``r``; ``r``
    itself sends a packet to ``y`` each ``r_sends_every`` seconds. A
    ``horizon`` of None drains the run."""
    sim = Simulator()
    tracer = RecordingTracer()
    if traced:
        sim.set_tracer(tracer)
    net = Network(sim)
    for node in "xry":
        net.add_node(node)
    uplink = net.add_link("x", "r", 10e6, 0.001, queue_packets=uplink_queue)
    loss = (GilbertElliottLoss(RngRegistry(seed=29).stream("loss"),
                               p_gb=0.05, p_bg=0.3, loss_bad=0.5)
            if bottleneck_loss else None)
    bottleneck = net.add_link("r", "y", 1.5e6, 0.002, queue_packets=4,
                              loss_model=loss)
    bottleneck._feed, bottleneck._far = _CountingFeed(), deque()
    seen = []

    def bind():
        net.node("y").bind(
            9, lambda pkt: seen.append((pkt.created_at, pkt.seq, sim.now)))

    if not unbound:
        bind()
    elif bind_at is not None:
        sim.call_at(bind_at, bind)
    registry = RngRegistry(seed=23)
    counters = []
    calls = {"_emit": 0, "_propagated": 0, "refused": 0, "direct": 0}
    forwarding = []     # not empty while the uplink's _propagated runs

    def counted(method):
        def call(*args):
            calls[method.__name__] += 1
            return method(*args)
        return call

    hosts = ["x"] * sources
    if second_host_at is not None:
        net.add_node("v")
        net.add_link("v", "r", 10e6, 0.003)
        hosts.append("v")
    for k, host in enumerate(hosts):
        rng = registry.stream(f"traffic:{host}{k}")
        kw = dict(params)
        if host == "v":
            kw["start_at"] = second_host_at
        if reference:
            sent = _reference_source(net, host, "y", rng, kind, port=9 + k,
                                     **kw)
            counters.append(lambda sent=sent: sent[0])
            continue
        if kind == "poisson":
            source = PoissonTrafficSource(net, host, "y", rng, **kw)
        else:
            kw["peak_rate_bps"] = kw.pop("rate_bps")
            source = OnOffTrafficSource(net, host, "y", rng, **kw)
        source._emit = counted(source._emit)
        counters.append(lambda source=source: source.packets_sent)

    def propagated(*args, deliver=uplink._propagated):
        calls["_propagated"] += 1
        forwarding.append(True)
        try:
            deliver(*args)
        finally:
            forwarding.pop()

    uplink._propagated = propagated
    offered = {}    # id -> packet, each packet the sources on x sent

    def offer(pkt, enqueue=uplink.enqueue):
        offered[id(pkt)] = pkt
        return enqueue(pkt)

    uplink.enqueue = offer

    def drop(pkt, arrival=None, drop=uplink._drop_queue):
        # a fed source's packet the full uplink drops at its instant
        offered[id(pkt)] = pkt
        return drop(pkt, arrival)

    uplink._drop_queue = drop

    def watch(link):
        """Count the refusals of a link out of ``r``, and the offers an
        entry makes to it directly, not through the uplink's
        ``_propagated``."""
        def enqueue(pkt, offer=link.enqueue):
            calls["direct"] += not forwarding
            admitted = offer(pkt)
            calls["refused"] += not admitted
            return admitted

        link.enqueue = enqueue
        return link

    watch(bottleneck)
    for when, up in flaps:
        sim.call_at(when, uplink.set_up, up)
    for when, up in bottleneck_flaps:
        sim.call_at(when, bottleneck.set_up, up)

    def r_sends():
        net.send(Packet("r", "y", 200, "UDP", "r", 9))
        sim.call_later(r_sends_every, r_sends)

    if r_sends_every:
        sim.call_later(r_sends_every, r_sends)

    def discards():
        net.catch_up()
        return ({flow: n for flow, n in net.tap.count_by_flow["UDP"].items()},
                dict(net.tap.bytes_by_protocol),
                net.node("y").rx_discarded)

    def shortcut():
        net.add_node("w")
        watch(net.add_link("r", "w", 10e6, 0.0005))
        net.add_link("w", "y", 10e6, 0.0005)
        # w feeds w -> y first, so that neither side plans across it
        # and r's entries stay the ones the count below reads
        net.send(Packet("w", "y", 100, "UDP", "w", 2))

    if shortcut_at is not None:
        sim.call_at(shortcut_at, shortcut)
    reads = []

    def read():
        reads.append(([dataclasses.asdict(link.stats)
                       for link in net.links.values()],
                      [count() for count in counters], discards()))
        sim.call_later(read_every, read)

    if read_every:
        sim.call_later(read_every, read)
    sim.run(until=horizon)
    stats = {link.name: dataclasses.asdict(link.stats)
             for link in net.links.values()}
    sent = sum(count() for count in counters)
    at_instant = sent if reference else calls["_emit"]
    rows = [(e.time, e.kind, e.name, e.args) for e in tracer.events
            if e.kind.startswith("link.")]
    planned_drops = sum(link.stats.queue_drops for link in net.links.values()
                        if link.src == "r") - calls["refused"]
    return Run(seen, stats, sent, sim.events_fired, reads, at_instant,
               rows, calls["_propagated"] + calls["direct"] + planned_drops,
               discards(), len(bottleneck._feed.packets),
               len(bottleneck._feed) + len(bottleneck._far), sim.now,
               sorted(
                   (pkt.created_at, pkt.seq) for pkt in dict.fromkeys(
                       [*offered.values(), *bottleneck._feed.packets])
                   if pkt.src == "x" and pkt.created_at <= sim.now))


# The flap geometries below were placed around the batches a fed source
# once planned ahead (16 packets, resumed at an arrival at r, withdrawn
# by a flap); a source plans nothing past now, and each stays a geometry
# the generated cases may not reach.

def _onoff_instants(**params):
    """An ON/OFF case's bursts and emission instants, read off the
    reference (the draws do not depend on the network)."""
    bursts, emitted = [], []
    _bottleneck_run("onoff", True, 3.0, bursts=bursts, emitted=emitted,
                    **params)
    return bursts, emitted


def _onoff_stop_instants():
    """A ``stop_at`` inside the third burst of the ON/OFF case below
    and one inside the OFF period after it."""
    (on, off), (next_on, _) = BURSTS[2], BURSTS[3]
    return (on + off) / 2, (off + next_on) / 2


def _longest_burst(bursts, emitted):
    """The emission instants of the longest burst."""
    start, end = max(bursts, key=lambda b: b[1] - b[0])
    return [t for t in emitted if start <= t < end]


def _uplink_flaps():
    """Down and up instants of ``x -> r`` inside a long burst, for a
    packet every 2 ms reaching ``r`` 1.8 ms after its emission ``e[i]``
    (so the batch planned when the burst starts, ``e[1]`` to ``e[16]``,
    resumes on ``e[16]``): down after ``e[1]`` arrived, withdrawing
    ``e[2]`` to ``e[16]`` (``e[2]`` is dropped at its instant), up
    mid-gap; down and up again between ``e[5]``'s arrival and ``e[6]``,
    which is sent at its instant; down with ``e[7]`` in flight (lost),
    up after ``e[8]`` (dropped)."""
    e = _longest_burst(BURSTS, EMITTED)
    assert len(e) >= 10
    gap = e[1] - e[0]
    return ((e[1] + 0.95 * gap, False), (e[3] + 0.5 * gap, True),
            (e[5] + 0.92 * gap, False), (e[5] + 0.97 * gap, True),
            (e[7] + 0.5 * gap, False), (e[8] + 0.5 * gap, True))


def _long_burst(params):
    """The emission instants of the first burst of 20 packets or more:
    for ``FAST_ONOFF`` (16 Mb/s) 154 packets, one every 0.5 ms, each
    0.8 ms on the 10 Mb/s uplink, too few to fill its queue. The uplink
    is idle when it starts."""
    bursts, emitted = _onoff_instants(**params)
    return next(burst for burst in (
        [t for t in emitted if start <= t < end] for start, end in bursts)
        if len(burst) >= 20)


def _uplink_flaps_twice():
    """Two down/up cycles of ``x -> r`` inside the fast burst, whose
    first batch, ``e[1]`` to ``e[16]``, is planned when it starts: down
    after ``e[2]``, withdrawing ``e[3]`` to ``e[16]``, up after
    ``e[4]``; down again after ``e[6]``, while the withdrawn packets
    still wait for their instants, up after ``e[8]``."""
    e = _long_burst(FAST_ONOFF)
    gap = e[1] - e[0]
    return ((e[2] + 0.5 * gap, False), (e[4] + 0.5 * gap, True),
            (e[6] + 0.5 * gap, False), (e[8] + 0.5 * gap, True))


def _uplink_flap_before_a_mid_batch_resume():
    """One down/up cycle of ``x -> r`` inside the fast burst, whose first
    batch, ``e[1]`` to ``e[16]``, resumes on ``e[8]``: down after
    ``e[2]``, withdrawing ``e[3]`` to ``e[16]``, ``e[8]`` among them, up
    after ``e[4]``. A source that resumed at ``e[8]``'s instant would
    admit ``e[17]`` on ahead of ``e[9]`` to ``e[16]``."""
    e = _long_burst(FAST_ONOFF)
    gap = e[1] - e[0]
    return ((e[2] + 0.5 * gap, False), (e[4] + 0.5 * gap, True))


def _uplink_flap_before_the_batch_ends():
    """One down/up cycle of ``x -> r`` inside the first long burst at
    36 Mb/s, a packet every 0.22 ms: its first batch, ``e[1]`` to
    ``e[16]``, resumes at ``e[2]``'s arrival at ``r``, ``e[0] + 3 *
    0.8 ms + 1 ms``, before ``e[16]`` is emitted. Down after ``e[2]``,
    withdrawing ``e[3]`` to ``e[16]``, up after ``e[4]``: planning goes
    on once ``e[16]`` was offered again, or ``e[17]`` would take its
    seq and its place on the uplink."""
    e = _long_burst(STEEP_ONOFF)
    gap = e[1] - e[0]
    return ((e[2] + 0.5 * gap, False), (e[4] + 0.5 * gap, True))


def _uplink_flaps_past_a_resume():
    """A down/up cycle of ``x -> r`` among packets planned past a resume.
    In the fast burst ``e[i]`` reaches ``r`` at ``a[i] = e[0] + (i + 1)
    * 0.8 ms + 1 ms``, so the first batch, ``e[1]`` to ``e[16]``, resumes
    on ``e[8]``, the latest to reach ``r`` by ``e[17]``, and ``e[9]`` to
    ``e[16]`` are in flight when it does. Down between ``a[8]`` and
    ``e[17]``, withdrawing the batch planned at ``a[8]``; up between
    ``a[11]`` and ``e[22]``."""
    e = _long_burst(FAST_ONOFF)
    a = [e[0] + (i + 1) * 0.0008 + 0.001 for i in range(len(e))]
    return (((a[8] + e[17]) / 2, False), ((a[11] + e[22]) / 2, True))


def _uplink_flaps_twice_before_a_resume():
    """Two down/up cycles of ``x -> r`` between ``e[5]``'s arrival and
    ``e[6]``, while the batch planned when the burst started waits, the
    resume on its last packet, ``e[16]``: the first down withdraws
    ``e[6]`` to ``e[16]``, keeping the resume, and the second finds them
    withdrawn already."""
    e = _longest_burst(BURSTS, EMITTED)
    gap = e[1] - e[0]
    return ((e[5] + 0.92 * gap, False), (e[5] + 0.94 * gap, True),
            (e[5] + 0.96 * gap, False), (e[5] + 0.98 * gap, True))


def _poisson_stop_inside_a_batch():
    """An instant between the 100th and 101st emission of the 4 Mb/s
    Poisson case: inside the seventh batch of 16."""
    emitted = []
    _bottleneck_run("poisson", True, 3.0, emitted=emitted, **FAST_POISSON)
    return (emitted[99] + emitted[100]) / 2


def _bottleneck_flap(down_s):
    """``r -> y`` down at 1.2 s for ``down_s``."""
    return ((1.2, False), (1.2 + down_s, True))


POISSON = dict(rate_bps=1.4e6)
FAST_POISSON = dict(rate_bps=4e6)
ONOFF = dict(rate_bps=4e6, on_mean_s=0.05, off_mean_s=0.05)
#: a 16 Mb/s peak into the 10 Mb/s uplink
FAST_ONOFF = dict(ONOFF, rate_bps=16e6)
#: a 36 Mb/s peak: the first batch of a burst resumes before its last
#: packet is emitted
STEEP_ONOFF = dict(ONOFF, rate_bps=36e6)
BURSTS, EMITTED = _onoff_instants(**ONOFF)
IN_BURST, IN_OFF = _onoff_stop_instants()

SOURCE_CASES = {
    # 1.4 Mb/s of 1000-byte packets for 6 s: ~1050 draws, 256 to a block
    "poisson_from_zero_across_blocks": (
        "poisson", 6.0, dict(rate_bps=1.4e6)),
    "poisson_started_and_stopped": (
        "poisson", 3.0, dict(rate_bps=1.4e6, start_at=0.5, stop_at=2.0)),
    "poisson_never_starts": (
        "poisson", 3.0, dict(rate_bps=1.4e6, start_at=2.0, stop_at=1.0)),
    # two draws a cycle, ~10 cycles a second for 60 s
    "onoff_from_zero_across_blocks": ("onoff", 60.0, dict(ONOFF)),
    "onoff_stopped_inside_a_burst": (
        "onoff", 3.0, dict(ONOFF, start_at=0.25, stop_at=IN_BURST + 0.25)),
    "onoff_stopped_inside_an_off_period": (
        "onoff", 3.0, dict(ONOFF, stop_at=IN_OFF)),
    # room for one waiting on the uplink
    "onoff_uplink_drops": (
        "onoff", 3.0, dict(FAST_ONOFF, uplink_queue=1)),
    "poisson_read_mid_run": (
        "poisson", 3.0, dict(rate_bps=4e6, read_every=0.0037)),
    "onoff_read_mid_run": (
        "onoff", 3.0, dict(FAST_ONOFF, read_every=0.0011)),
    "onoff_uplink_flapping": (
        "onoff", 3.0, dict(ONOFF, flaps=_uplink_flaps(), read_every=0.0007)),
    "onoff_uplink_flapping_twice_in_a_planned_burst": (
        "onoff", 3.0, dict(FAST_ONOFF, flaps=_uplink_flaps_twice(),
                           read_every=0.0003)),
    "onoff_uplink_flapping_twice_before_a_resume": (
        "onoff", 3.0, dict(ONOFF, flaps=_uplink_flaps_twice_before_a_resume(),
                           read_every=0.0007)),
    "onoff_uplink_flapping_past_a_resume": (
        "onoff", 3.0, dict(FAST_ONOFF, flaps=_uplink_flaps_past_a_resume(),
                           read_every=0.0003)),
    "onoff_uplink_flapping_once_before_a_mid_batch_resume": (
        "onoff", 3.0, dict(FAST_ONOFF,
                           flaps=_uplink_flap_before_a_mid_batch_resume(),
                           read_every=0.0003)),
    # the packets in flight and those planned reach r -> w, as an
    # unplanned run's do
    "poisson_routes_change_mid_run": (
        "poisson", 3.0, dict(POISSON, shortcut_at=1.5, read_every=0.0037)),
    "poisson_stopped_inside_a_batch": (
        "poisson", 3.0,
        dict(FAST_POISSON, stop_at=_poisson_stop_inside_a_batch())),
    "onoff_two_sources_on_one_host": ("onoff", 3.0, dict(ONOFF, sources=2)),
    "poisson_traced": ("poisson", 3.0, dict(rate_bps=1.4e6, traced=True)),
    "onoff_traced": (
        "onoff", 3.0, dict(ONOFF, flaps=_uplink_flaps(), traced=True)),
    # y binds no port 9: the source feeds r -> y, and each read catches
    # it up; the bottleneck's loss chain draws for the fed packets there
    "poisson_unbound_read_mid_run": (
        "poisson", 3.0, dict(FAST_POISSON, unbound=True, read_every=0.0037,
                             bottleneck_loss=True)),
    # r's own packets share r -> y and its loss chain with the fed ones
    "poisson_unbound_beside_another_sender": (
        "poisson", 3.0, dict(POISSON, unbound=True, read_every=0.0037,
                             bottleneck_loss=True, r_sends_every=0.0029)),
    "onoff_unbound_read_mid_run": (
        "onoff", 3.0, dict(FAST_ONOFF, unbound=True, read_every=0.0011)),
    "onoff_unbound_uplink_flapping": (
        "onoff", 3.0, dict(ONOFF, unbound=True, flaps=_uplink_flaps(),
                           read_every=0.0007)),
    "onoff_unbound_uplink_flapping_twice_in_a_planned_burst": (
        "onoff", 3.0, dict(FAST_ONOFF, unbound=True,
                           flaps=_uplink_flaps_twice(), read_every=0.0003)),
    "onoff_unbound_uplink_flapping_twice_before_a_resume": (
        "onoff", 3.0, dict(ONOFF, unbound=True,
                           flaps=_uplink_flaps_twice_before_a_resume(),
                           read_every=0.0007)),
    "onoff_unbound_uplink_flapping_past_a_resume": (
        "onoff", 3.0, dict(FAST_ONOFF, unbound=True,
                           flaps=_uplink_flaps_past_a_resume(),
                           read_every=0.0003)),
    "onoff_unbound_uplink_flapping_once_before_a_mid_batch_resume": (
        "onoff", 3.0, dict(FAST_ONOFF, unbound=True,
                           flaps=_uplink_flap_before_a_mid_batch_resume(),
                           read_every=0.0003)),
    "onoff_unbound_uplink_flapping_before_the_batch_ends": (
        "onoff", 3.0, dict(STEEP_ONOFF, unbound=True,
                           flaps=_uplink_flap_before_the_batch_ends(),
                           read_every=0.0003)),
    # r -> y down for less than a packet's flight on it (5.3 ms on the
    # wire, 2 ms of delay): the packets in flight arrive after it is up
    "poisson_unbound_fed_link_flap_shorter_than_a_flight": (
        "poisson", 3.0, dict(FAST_POISSON, unbound=True, read_every=0.0037,
                             bottleneck_loss=True,
                             bottleneck_flaps=_bottleneck_flap(0.0005))),
    "poisson_unbound_fed_link_flap_longer_than_a_flight": (
        "poisson", 3.0, dict(FAST_POISSON, unbound=True, read_every=0.0037,
                             bottleneck_loss=True,
                             bottleneck_flaps=_bottleneck_flap(0.05))),
    "poisson_unbound_routes_change_mid_run": (
        "poisson", 3.0, dict(POISSON, unbound=True, shortcut_at=1.5,
                             read_every=0.0037)),
    "poisson_unbound_port_bound_mid_run": (
        "poisson", 3.0, dict(FAST_POISSON, unbound=True, bind_at=1.5,
                             read_every=0.0037, bottleneck_loss=True)),
    # a second source on its own host feeds r -> y too: neither does
    "poisson_unbound_two_hosts_feed_one_link": (
        "poisson", 3.0, dict(POISSON, unbound=True, second_host_at=1.2,
                             read_every=0.0037, bottleneck_loss=True)),
    "poisson_unbound_drained": (
        "poisson", None, dict(FAST_POISSON, unbound=True, stop_at=2.0,
                              bottleneck_loss=True)),
}
#: cases where a source feeds r -> y, and so plans; in every other one
#: ``y`` binds port 9 (or nothing is sent) and each packet is sent from
#: an entry at its emission instant, as before sources planned
FED = {case for case, (_, _, params) in SOURCE_CASES.items()
       if params.get("unbound")}
#: what makes a source that fed stop feeding r -> y for good or a while
UNFEEDS = {"bind_at", "bottleneck_flaps", "shortcut_at", "second_host_at"}


@pytest.mark.parametrize("case", sorted(SOURCE_CASES))
def test_sources_reproduce_the_generator_reference_exactly(case):
    kind, horizon, params = SOURCE_CASES[case]
    want = _bottleneck_run(kind, True, horizon, **params)
    got = _bottleneck_run(kind, False, horizon, **params)
    assert got.seen == want.seen            # (emit, seq, arrival) at y
    assert got.stats == want.stats          # LinkStats of both links
    assert got.packets_sent == want.packets_sent
    assert got.discards == want.discards    # the tap and y's discards
    assert got.reads == want.reads          # read by read, mid-run
    assert got.link_rows == want.link_rows  # detail rows, in order
    assert got.now == want.now              # where the run ended
    assert got.sent == want.sent            # (emit, seq) of every packet
    assert want.fed == want.pending_fed == 0
    produced = got.packets_sent - got.sent_at_instant
    if case not in FED:
        # sent at its instants through the uplink's ``enqueue``, as the
        # reference sends: the same entries, and the uplink plans
        # across r -> y as the reference's does
        assert produced == got.fed == 0
        assert got.entries_at_r == want.entries_at_r
        assert got.events_fired == want.events_fired
    else:
        # a produced packet fires no entry at its emission instant, and
        # none at r or y while it is fed; one it replaced takes its seq
        # when it is produced
        assert got.fed > 0 and produced > 0
        assert got.events_fired < want.events_fired
        if kind == "poisson" and not UNFEEDS & params.keys():
            assert produced == got.packets_sent  # fed from first to last
    if case != "poisson_never_starts":
        # some dropped: the tap counts the sources' packets that reached
        # y, handled or discarded
        delivered = sum(n for flow, n in got.discards[0].items()
                        if flow.startswith("xtraffic:"))
        assert got.packets_sent > delivered >= len(got.seen)
        assert delivered > 0
        assert got.stats["r->y"]["queue_drops"] > 0


def test_the_new_cases_reach_what_their_names_say():
    uplink = _bottleneck_run("onoff", False, 3.0, **SOURCE_CASES[
        "onoff_uplink_drops"][2])
    assert uplink.stats["x->r"]["queue_drops"] > 0
    assert uplink.sent_at_instant >= uplink.stats["x->r"]["queue_drops"]
    # the flaps fall where the geometries say, fed or not: a flap ends
    # a feed, and the source sends at its instants until it may feed
    # again
    flapping = _bottleneck_run("onoff", False, 3.0, **SOURCE_CASES[
        "onoff_unbound_uplink_flapping"][2])
    # e[2], e[3] and e[8] dropped at ingress, e[7] in flight
    assert flapping.stats["x->r"]["fault_drops"] == 4
    assert 0 < flapping.sent_at_instant < flapping.packets_sent
    # e[3], e[4], e[7] and e[8] dropped at ingress, e[0] in flight at
    # the first down and e[2] at the second
    twice = _bottleneck_run("onoff", False, 3.0, **SOURCE_CASES[
        "onoff_unbound_uplink_flapping_twice_in_a_planned_burst"][2])
    assert twice.stats["x->r"]["fault_drops"] == 6
    # e[9] to e[11] lost in flight, e[17] to e[21] dropped at ingress
    past = _bottleneck_run("onoff", False, 3.0, **SOURCE_CASES[
        "onoff_unbound_uplink_flapping_past_a_resume"][2])
    assert past.stats["x->r"]["fault_drops"] == 8
    # e[3] and e[4] dropped at ingress, e[2] in flight
    once = _bottleneck_run("onoff", False, 3.0, **SOURCE_CASES[
        "onoff_unbound_uplink_flapping_once_before_a_mid_batch_resume"][2])
    assert once.stats["x->r"]["fault_drops"] == 3
    # e[3] and e[4] dropped at ingress; e[2] arrived with the uplink up
    # again
    steep = _bottleneck_run("onoff", False, 3.0, **SOURCE_CASES[
        "onoff_unbound_uplink_flapping_before_the_batch_ends"][2])
    assert steep.stats["x->r"]["fault_drops"] == 2
    rerouted = _bottleneck_run("poisson", False, 3.0, **SOURCE_CASES[
        "poisson_routes_change_mid_run"][2])
    assert rerouted.stats["r->w"]["tx_packets"] > 0
    stopped = _bottleneck_run("poisson", False, 3.0, **SOURCE_CASES[
        "poisson_stopped_inside_a_batch"][2])
    assert stopped.packets_sent == 100
    traced = _bottleneck_run("onoff", True, 3.0, **SOURCE_CASES[
        "onoff_traced"][2])
    assert {row[1] for row in traced.link_rows} == {"link.enqueue",
                                                    "link.drop"}
    times = [row[0] for row in traced.link_rows]
    assert times == sorted(times)
    reads = _bottleneck_run("poisson", False, 3.0, **SOURCE_CASES[
        "poisson_read_mid_run"][2]).reads
    assert len(reads) > 500 and reads[0][1] < reads[-1][1]


@pytest.mark.parametrize("tracer", [None, FlightRecorder, RecordingTracer])
def test_an_entry_at_the_router_for_a_batched_arrival_fires_in_the_plans_order(
        tracer):
    """A source that cannot feed changes no order. ``y`` binds port 9,
    so the source ticks at each emission: the entry that brings
    ``e[5]`` to ``r`` takes its seq at ``e[5]``'s emission, and a packet
    ``r`` sends at that same arrival instant from an entry pushed before
    enters the queue first, untraced as under any tracer (a fed packet's
    orders: ``test_a_fed_step_is_ordered_where_it_is_produced``). Powers
    of two keep every instant exact."""
    sim = Simulator()
    if tracer is not None:
        sim.set_tracer(tracer())
    net = Network(sim)
    for node in "xry":
        net.add_node(node)
    # 128-byte packets: 2**-10 s on each link, 0.125 s apart in the burst
    net.add_link("x", "r", 2.0**20, 2.0**-4)
    net.add_link("r", "y", 2.0**20, 2.0**-4)
    order = []
    net.node("y").bind(9, lambda pkt: order.append((pkt.src, pkt.seq)))
    OnOffTrafficSource(net, "x", "y", RngRegistry(seed=1).stream("s"),
                       peak_rate_bps=8192.0, on_mean_s=1e6,
                       packet_bytes=128, stop_at=1.0)
    at_r = 5 * 0.125 + 2.0**-10 + 2.0**-4
    sim.call_at(0.25, sim.call_at, at_r, net.send,
                Packet("r", "y", 128, "UDP", "r", 9, seq=0))
    sim.run()
    # e[0] to e[7], and r's packet ahead of e[5]
    assert len(order) == 9
    assert order[5:7] == [("r", 0), ("x", 6)]


def _tie_run(tracer):
    """``x -> r -> y`` at 2**20 b/s and 2**-4 s each, and an ON/OFF
    source at ``x`` emitting 128-byte packets (2**-10 s on each link)
    every 0.125 s from 0 to 1 s, to port 9 at ``y``, which nothing
    binds: so the source feeds both links, unless a tracer watches.
    Powers of two keep every instant exact. Returns (network, source,
    ``e5``, ``e5``'s arrival at ``r``, the same at ``y``)."""
    sim = Simulator()
    if tracer is not None:
        sim.set_tracer(tracer())
    net = Network(sim)
    for node in "xry":
        net.add_node(node)
    net.add_link("x", "r", 2.0**20, 2.0**-4)
    net.add_link("r", "y", 2.0**20, 2.0**-4)
    source = OnOffTrafficSource(net, "x", "y", RngRegistry(seed=1).stream(
        "s"), peak_rate_bps=8192.0, on_mean_s=1e6, packet_bytes=128,
        stop_at=1.0)
    e5 = 5 * 0.125
    at_r = e5 + 2.0**-10 + 2.0**-4
    return net, source, e5, at_r, at_r + 2.0**-10 + 2.0**-4


@pytest.mark.parametrize("tracer", [None, FlightRecorder, RecordingTracer])
def test_a_fed_step_is_ordered_where_it_is_produced(tracer):
    """The orders feeding changes. A fed emission at exactly now is
    produced after every entry at now: a read of ``packets_sent`` at
    ``e5`` from an entry pushed after ``e4`` (where a ticking source
    pushes its entry for ``e5``) sees ``e5`` not yet sent, where any
    tracer's run (the source ticks) sees it sent; one pushed before
    ``e4`` sees it not sent either way. A fed packet takes its seq when
    it is produced, in the first catch-up after its emission instant:
    ``r``'s packet to port 10, sent at exactly ``e5``'s arrival at ``r``
    from an entry pushed after ``e5`` and before anything caught the
    links up, is admitted ahead of ``e5`` there, where a ticking source's
    ``e5`` takes its seq at ``e5`` and is admitted first; its arrival at
    ``y`` tells which."""
    net, source, e5, at_r, _ = _tie_run(tracer)
    sim = net.sim
    arrived, reads = [], []
    net.node("y").bind(10, lambda pkt: arrived.append(sim.now))
    for pushed_at in (0.25, (e5 - 0.125 + e5) / 2):
        sim.call_at(pushed_at, sim.call_at, e5,
                    lambda: reads.append(source.packets_sent))
    sim.call_at((e5 + at_r) / 2, sim.call_at, at_r, net.send,
                Packet("r", "y", 128, "UDP", "r", 10, seq=0))
    sim.run()
    fed = tracer is None
    assert reads == [5, 5 if fed else 6]
    queued = 0.0 if fed else 2.0**-10  # behind e5
    assert arrived == [at_r + queued + 2.0**-10 + 2.0**-4]
    assert net.node("y").rx_discarded == 8  # e0 to e7


@pytest.mark.parametrize("tracer", [None, FlightRecorder, RecordingTracer])
def test_a_fed_arrival_is_ordered_by_its_production(tracer):
    """A fed packet's arrival at ``y`` is ordered by the seq it took
    when it was produced (here by a read of ``packets_sent`` at 0.65,
    after ``e5``): a read at exactly that arrival from an entry pushed
    before the production sees it not yet delivered, one pushed after
    sees it delivered. A ticking source's ``e5`` reaches ``y`` at an
    entry pushed at ``e5`` when the uplink plans it across ``r -> y``
    (a control-tier tracer: both reads see it) or at its admission at
    ``r`` when nothing plans (a detail tracer: neither does)."""
    net, source, e5, _, at_y = _tie_run(tracer)
    sim = net.sim
    reads = []

    def read():
        net.catch_up()
        reads.append(net.node("y").rx_discarded)

    sim.call_at(0.64, sim.call_at, at_y, read)
    sim.call_at(0.65, lambda: source.packets_sent)
    sim.call_at(0.66, sim.call_at, at_y, read)
    sim.run()
    assert e5 < 0.64 < at_y
    assert reads == {None: [5, 6], FlightRecorder: [6, 6],
                     RecordingTracer: [5, 5]}[tracer]
    assert net.node("y").rx_discarded == 8


def test_a_fed_link_holds_only_packets_in_flight():
    """A fed source produces nothing ahead of now, and its router link
    admits and delivers what is due in every catch-up: after one, the
    feed holds only packets still on their way over the uplink and the
    far queue only packets on their way over ``r -> y``, however long
    nothing read the links before. Read off the queues themselves."""
    sim = Simulator()
    net = Network(sim)
    for node in "xry":
        net.add_node(node)
    uplink = net.add_link("x", "r", 10e6, 0.001)
    link = net.add_link("r", "y", 10e6, 0.001)
    source = PoissonTrafficSource(net, "x", "y",
                                  RngRegistry(seed=3).stream("s"),
                                  rate_bps=4e6)
    held = []

    def catch_up():
        net.catch_up()
        now = sim.now
        assert source._at >= now
        assert all(t >= now for t, _, _ in link._feed)
        assert all(t >= now for t, _, _ in link._far)
        # in flight on a link: its records not yet departed (settled by
        # the read) and at most two propagating (1 ms of delay, 0.8 ms
        # apart at least)
        for queue, on in ((link._feed, uplink), (link._far, link)):
            on.stats
            assert len(queue) <= len(on._departures) + 2
        held.append(len(link._feed) + len(link._far))

    # gaps of 1 ms to 0.9 s since the last read
    at = 0.0
    for k in range(1, 31):
        at += 0.001 * k * k
        sim.call_at(at, catch_up)
    sim.run(until=at)
    assert link._feeder is uplink._feeder is source
    assert source.packets_sent > 1000
    assert 0 < max(held) <= 8


def _flaps(rnd, cycles, horizon):
    """``cycles`` down/up pairs of a link at continuous instants before
    ``horizon``, each down for up to 30 ms."""
    downs = sorted(rnd.uniform(0.02, horizon) for _ in range(cycles))
    return tuple(step for down in downs for step in (
        (down, False), (down + rnd.uniform(0.0001, 0.03), True)))


@st.composite
def _generated_cases(draw):
    """One ``x -> r -> y`` case of :func:`_bottleneck_run`: the structure
    from hypothesis, every instant and rate continuous (from a seeded
    ``random.Random``), so no exact tie occurs. The draws lean toward
    the geometries a uniform draw reaches rarely: a lossy bottleneck
    shared with ``r``'s own sender under reads, and an unbound target
    under several uplink flaps."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["poisson", "onoff"]))
    drained = draw(st.integers(0, 9)) == 0
    horizon = rnd.uniform(0.3, 1.2)
    if kind == "poisson":
        params = dict(rate_bps=rnd.uniform(0.5e6, 9e6))
    else:
        params = dict(rate_bps=rnd.uniform(2e6, 36e6),
                      on_mean_s=rnd.uniform(0.01, 0.1),
                      off_mean_s=rnd.uniform(0.01, 0.1))
    if draw(st.booleans()):
        params["start_at"] = rnd.uniform(0.0, 0.3)
    if drained or draw(st.booleans()):
        # a drained run ends only once the source stops
        params["stop_at"] = rnd.uniform(0.1, horizon)
    port = draw(st.sampled_from(["never", "never", "never", "from_start",
                                 "at_instant"]))
    params["unbound"] = port != "from_start"
    if port == "at_instant":
        params["bind_at"] = rnd.uniform(0.0, horizon)
    params["flaps"] = _flaps(rnd, draw(st.sampled_from([0, 1, 2, 3, 3, 4])),
                             horizon)
    params["bottleneck_flaps"] = _flaps(
        rnd, draw(st.sampled_from([0, 0, 1, 2])), horizon)
    params["bottleneck_loss"] = draw(st.integers(0, 3)) > 0
    if draw(st.integers(0, 3)) == 0:
        params["uplink_queue"] = draw(st.integers(1, 8))
    if draw(st.integers(0, 4)) == 0:
        params["shortcut_at"] = rnd.uniform(0.0, horizon)
    if draw(st.integers(0, 4)) == 0:
        params["second_host_at"] = rnd.uniform(0.0, horizon)
    if draw(st.integers(0, 5)) == 0:
        params["sources"] = 2
    params["traced"] = draw(st.integers(0, 7)) == 0
    if not drained:
        # r's sender and the reads never stop: only a cut run has them
        if draw(st.integers(0, 3)) > 0:
            params["r_sends_every"] = rnd.uniform(0.0005, 0.006)
        if draw(st.integers(0, 3)) > 0:
            params["read_every"] = rnd.uniform(0.0003, 0.01)
    return kind, None if drained else horizon, params


@settings(max_examples=200, deadline=None)
@given(case=_generated_cases())
def test_generated_cases_match_the_run_that_never_plans(case):
    """The referee of every shortcut on the data path (ROADMAP 11(a)):
    a generated case gives what the same case gives with
    ``_plans_through = False`` on every link, which plans nothing across
    a link and feeds nothing, in everything the hand cases compare but
    the heap entries the shortcuts save."""
    kind, horizon, params = case
    got = _bottleneck_run(kind, False, horizon, **params)
    with never_planning(pytest.MonkeyPatch):
        want = _bottleneck_run(kind, False, horizon, **params)
    assert want.fed == 0
    assert got.seen == want.seen
    assert got.stats == want.stats
    assert got.packets_sent == want.packets_sent
    assert got.discards == want.discards
    assert got.reads == want.reads
    assert got.link_rows == want.link_rows
    assert got.now == want.now
    assert got.sent == want.sent


def test_onoff_stop_instants_fall_where_the_case_names_say():
    assert BURSTS[2][0] < IN_BURST < BURSTS[2][1] < IN_OFF < BURSTS[3][0]


def _reference_is_lost(rng, state, p_gb, p_bg, loss_good, loss_bad):
    """One decision of the chain as it was: two scalar draws."""
    if state["bad"]:
        if rng.random() < p_bg:
            state["bad"] = False
    elif rng.random() < p_gb:
        state["bad"] = True
    return bool(rng.random() < (loss_bad if state["bad"] else loss_good))


@pytest.mark.parametrize("traced", [False, True])
def test_is_lost_equals_the_scalar_draw_reference(traced):
    chain = dict(p_gb=0.05, p_bg=0.25, loss_bad=0.4)
    sim = Simulator()
    tracer = RecordingTracer()
    if traced:
        sim.set_tracer(tracer)
    model = GilbertElliottLoss(RngRegistry(seed=5).stream("ge"), sim=sim,
                               name="ge", **chain)
    model.loss_good = 0.01  # both states lose
    rng, state = RngRegistry(seed=5).stream("ge"), {"bad": False}
    flips = losses = 0
    for k in range(10_000):
        was_bad = state["bad"]
        want = _reference_is_lost(rng, state, loss_good=0.01, **chain)
        flips += state["bad"] != was_bad
        losses += want
        assert model.is_lost(flow="f", seq=k) is want, k
        assert model.in_bad is state["bad"], k
    assert 0 < losses < 10_000
    counts = tracer.kind_counts()
    assert counts.get("impair.state", 0) == (flips if traced else 0)
    assert counts.get("impair.loss", 0) == (losses if traced else 0)
    assert flips > 100
