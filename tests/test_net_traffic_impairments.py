"""Unit tests for traffic sources and the Gilbert–Elliott model.

The sources were generator processes drawing one numpy scalar per
packet and sending through a ``DatagramSocket``; they are ``call_later``
chains drawing in blocks now. The old loops are kept *here*, verbatim,
as the reference (``_reference_source``): same topology, same seed,
and the new sources must emit the same packets at the same instants,
leave the same ``LinkStats`` and fire the same number of heap entries.
"""

import dataclasses

import pytest

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
from repro.obs.tracer import RecordingTracer


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
    assert src.mean_rate_bps == pytest.approx(1_000_000)
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
    assert all(src.packets_sent > 0 and src.done.processed
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
    ge = GilbertElliottLoss(rng, p_gb=0.1, p_bg=0.4, loss_good=0.0, loss_bad=0.5)
    expected = (0.1 / 0.5) * 0.5
    n = 50_000
    losses = sum(ge.is_lost() for _ in range(n))
    assert losses / n == pytest.approx(expected, rel=0.15)
    assert ge.observed_loss_rate == losses / n
    assert ge.stationary_loss_rate == pytest.approx(expected)


def test_gilbert_elliott_burstiness():
    """Losses should cluster: P(loss | previous loss) > P(loss)."""
    rng = RngRegistry(seed=6).stream("ge2")
    ge = GilbertElliottLoss(rng, p_gb=0.02, p_bg=0.2, loss_good=0.0, loss_bad=0.5)
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
        names = {e.name for e in tracer.select(kind=kind)}
        assert names == {f"access-loss:client{i}" for i in (1, 2, 3)}, kind
        assert names <= set(eng.rng.names())


# ---------------------------------------------------------------------------
# The referee: the generator / scalar-draw code the sources and the loss
# chain replaced, kept only here
# ---------------------------------------------------------------------------

def _reference_source(net, src, dst, rng, kind, *, packet_bytes=1000,
                      start_at=0.0, stop_at=float("inf"), rate_bps=0.0,
                      on_mean_s=1.0, off_mean_s=1.0, bursts=None):
    """The sources as they were: one process, one ``Timeout`` and one
    scalar ``rng.exponential`` per packet, a bound ``DatagramSocket``.
    ``bursts`` collects each ON period as ``(start, end)``."""
    sim = net.sim
    sock = DatagramSocket(net, src, port=9)
    sent = [0]

    def emit():
        sent[0] += 1
        sock.sendto(dst, dst_port=9, size_bytes=packet_bytes,
                    protocol="UDP", flow_id=f"xtraffic:{src}->{dst}",
                    seq=sent[0])

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


def _bottleneck_run(kind, reference, horizon, **params):
    """``x -> r -> y`` with a slow, short-queued second hop, so the
    links' statistics include drops. Returns what the sink saw as
    ``(emit instant, seq, arrival instant)``, every link's stats, the
    packets sent and the heap entries fired."""
    sim = Simulator()
    net = Network(sim)
    for node in "xry":
        net.add_node(node)
    net.add_link("x", "r", 10e6, 0.001)
    net.add_link("r", "y", 1.5e6, 0.002, queue_packets=4)
    seen = []
    net.node("y").bind(
        9, lambda pkt: seen.append((pkt.created_at, pkt.seq, sim.now)))
    rng = RngRegistry(seed=23).stream("traffic:x")
    if reference:
        sent = _reference_source(net, "x", "y", rng, kind, **params)
    elif kind == "poisson":
        source = PoissonTrafficSource(net, "x", "y", rng, **params)
    else:
        params["peak_rate_bps"] = params.pop("rate_bps")
        source = OnOffTrafficSource(net, "x", "y", rng, **params)
    sim.run(until=horizon)
    stats = {link.name: dataclasses.asdict(link.stats)
             for link in net.links.values()}
    packets = sent[0] if reference else source.packets_sent
    return seen, stats, packets, sim.events_fired


def _onoff_stop_instants():
    """A ``stop_at`` inside the third burst of the ON/OFF case below
    and one inside the OFF period after it, read off the reference."""
    bursts = []
    _bottleneck_run("onoff", True, 3.0, bursts=bursts, **ONOFF)
    (on, off), (next_on, _) = bursts[2], bursts[3]
    return (on + off) / 2, (off + next_on) / 2


ONOFF = dict(rate_bps=4e6, on_mean_s=0.05, off_mean_s=0.05)
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
}


@pytest.mark.parametrize("case", sorted(SOURCE_CASES))
def test_sources_reproduce_the_generator_reference_exactly(case):
    kind, horizon, params = SOURCE_CASES[case]
    want = _bottleneck_run(kind, True, horizon, **params)
    got = _bottleneck_run(kind, False, horizon, **params)
    assert got[0] == want[0]          # (emit instant, seq, arrival) at y
    assert got[1] == want[1]          # LinkStats of both links
    assert got[2:] == want[2:]        # packets sent, heap entries fired
    if case != "poisson_never_starts":
        assert got[2] > len(got[0]) > 0   # some delivered, some dropped
        assert got[1]["r->y"]["queue_drops"] > 0


def test_onoff_stop_instants_fall_where_the_case_names_say():
    bursts = []
    _bottleneck_run("onoff", True, 3.0, bursts=bursts, **ONOFF)
    assert bursts[2][0] < IN_BURST < bursts[2][1] < IN_OFF < bursts[3][0]


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
    params = dict(p_gb=0.05, p_bg=0.25, loss_good=0.01, loss_bad=0.4)
    sim = Simulator()
    tracer = RecordingTracer()
    if traced:
        sim.set_tracer(tracer)
    model = GilbertElliottLoss(RngRegistry(seed=5).stream("ge"), sim=sim,
                               name="ge", **params)
    rng, state = RngRegistry(seed=5).stream("ge"), {"bad": False}
    flips = 0
    for k in range(10_000):
        was_bad = state["bad"]
        want = _reference_is_lost(rng, state, **params)
        flips += state["bad"] != was_bad
        assert model.is_lost(flow="f", seq=k) is want, k
        assert model.in_bad is state["bad"], k
    assert model.decisions == 10_000 and 0 < model.losses < 10_000
    counts = tracer.kind_counts()
    assert counts.get("impair.state", 0) == (flips if traced else 0)
    assert counts.get("impair.loss", 0) == (model.losses if traced else 0)
    assert flips > 100
