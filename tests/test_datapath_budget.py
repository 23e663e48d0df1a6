"""Call budgets: the untraced data path, and what watching it adds.

A count, not a timing: ``sys.setprofile`` sees one ``call`` event per
Python function entered (generator resumptions included), and a
deterministic run enters the same functions every time. The budget is
Python calls per RTP packet delivered, over everything a small
population run executes — kernel, links, RTP, media sources, playout —
so a helper added back on the packet path (a wrapper object per heap
entry, a ``_forward`` per hop, a property read per packet) shows up
here as a number before it shows up in a benchmark as noise. The
observability hooks are budgeted the same way — calls added per ring
event and per sampler tick over the untraced run — so nothing in CI
asserts a measured time.
"""

import gc
import os
import sys

import pytest

import repro.client
import repro.obs
from repro.core.config import EngineConfig, TrafficConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.obs.flightrec import FlightRecorder

#: Python calls per delivered RTP packet. 13.38 measured (10,221 calls,
#: 764 packets, QoE scoring included): the server's uplink plans each
#: packet across the router's link to the client, so the hop through
#: the router fires no entry; 13.39 (10,230) while a link routed the
#: router only when the first packet reached it, so that packet's hop
#: was not planned; 16.46 (12,579) while the hop through the router
#: fired an entry, which
#: cost ``call_at``, the uplink's ``_propagated`` and the router-side
#: ``enqueue``; 16.41 (12,537) measured once before; 19.67 (15,031)
#: while a frame's arrival went through ``MediaBuffer.push`` and
#: each playout tick
#: through ``BufferMonitor.check``, ``_pop_fresh`` (``peek``, ``pop``),
#: ``PlayoutEventLog.record`` and ``report_position``, and a slave's
#: ``SkewController.decide`` through ``skew_of``, ``master_position``
#: and ``SkewSeries.sample``; 23.72 (18,119) while each
#: fragment's header went through ``RtpPacket.__new__``, each packet
#: through a dataclass ``__init__`` and ``__post_init__``, and each
#: arrival through ``_unwrap`` and ``InterarrivalJitterEstimator.observe``;
#: 27.91 (21,323) while a sender
#: went through ``Network.send`` per fragment and each hop's arrival
#: through a forwarding closure and ``PacketTap.record``; 32.16 (24,571)
#: while a link scheduled a ``_tx_done`` at each departure besides the
#: arrival; the same run made 45.96 (35,117)
#: while every frame pump and playout was a generator process with a
#: ``Timeout`` per frame, frames and playout events were frozen
#: dataclasses and a frame source re-derived its grade per frame; 79.3
#: before the heap held bare ``(time, seq, fn, args)`` entries and links
#: scheduled themselves, and 46.9 while result collection walked the
#: playout log five times per stream.
BUDGET = 13.42
#: Python calls under ``repro/client/`` while the simulation runs, per
#: frame played. 2.73 measured (820 calls for 300 frames): the frame
#: sink on arrival, the playout tick, and ``SkewController.decide`` on a
#: sync slave's tick; a watermark crossing, a gap, a pause and a
#: stream's start and stop cost a few more. 10.71 (3,214) while the sink
#: went through ``MediaBuffer.push`` and the tick through the monitor,
#: ``_pop_fresh``, ``peek``, ``pop``, ``record`` and ``report_position``.
CLIENT_FRAME_BUDGET = 3.0
#: calls into ``repro/obs/`` to score one session's QoE when its result
#: is collected: the scorer, its three helpers, one histogram built,
#: batch-fed and summarised. Fixed, whatever the session's length.
SCORING_CALLS_PER_SESSION = 17
#: extra Python calls per event a control-tier ring records. 5.49
#: measured (+527 calls for 96 events): the emit, its ``TraceEvent``,
#: the recorder's two ``_record`` frames (the per-kind count is a dict
#: increment inside one of them), and nothing on the per-packet path.
#: 13.86 while the count went through a labelled-instrument registry.
#: (Still 5.49 -- +439 for 80 -- now that the run's four pumps and four
#: playouts are callback chains: see the event count below; and still
#: +439 now that ``Node.deliver`` traces ``net.deliver`` itself: the
#: detail-tier check moved, no call was added beside it; and still 4.36
#: -- +349 for 80 -- now that links plan across the router: the ring
#: turns no planning off, so the recorded run plans the hops the plain
#: one does and fires the same heap entries.)
RING_EVENT_BUDGET = 5.5
#: extra Python calls per tick of the DES-clock sampler. 39.4 measured
#: (+551 calls over 14 ticks of 0.25 s); 30.3 (+424) while a link's
#: counters were a plain attribute: reading ``link.stats`` now settles
#: the transmissions that ended, one call per link read, paid only by
#: whoever samples.
SAMPLER_TICK_BUDGET = 40.0
#: Python calls one cross-traffic packet costs, from the source through
#: two links to the discard at the target's port 9. 1.12 measured for
#: Poisson (284 calls for 253 packets: the source keeps no entry per
#: step and is caught up by whoever touches its links, here once, when
#: the run returns; it builds each packet there, admits it to its uplink
#: and feeds it to the router's next link, which admits and discards
#: them in the same catch-up, the tap and discard counts in one sum)
#: and 1.23 for ON/OFF (133 for 108: its OFF periods are produced too,
#: with no entry and no ``rewrite``). 1.32 (334) and 1.65 (178) while
#: the source planned a batch of packets across its own uplink per
#: resume, fed every one to the router's next link and caught that link
#: up once a batch; each ON/OFF burst started and ended at an entry of
#: its own.
#: 1.56 (394)
#: and 1.80 (194) while each batch's resume carried one packet that
#: entered the router's next link through its ``enqueue`` and reached
#: the target through an entry of its own. 6.17 (1,563) and 6.35
#: (687) while each packet entered the router's next link through its
#: ``enqueue`` straight from an entry of its own and reached the
#: target's port through another. 6.46 (699) for ON/OFF while the
#: uplink claimed the router's link for the first burst's first packet
#: and the source's first planned packet there took the claim back:
#: 16 calls (``_disown``, ``_withdraw``, ``rewrite``, 13 ``back``), less
#: the 4 that first packet's hop through ``_propagated`` now costs.
#: 7.91 (2,002) and 8.19 (884) while a plan ended at the first
#: packet to reach the router by the next emission and each arrival
#: there went through the uplink's ``_propagated``; 11.04 (2,794) and
#: 11.10 (1,199) while a
#: source ticked at each emission and offered the packet through
#: ``Link.enqueue`` (6 at the source); 9.04 (2,287) in a
#: prototype that planned one packet per arrival; 12.04 (3,047) while
#: a ``Packet`` was a dataclass, ``__post_init__`` checking its size
#: after ``__init__``; 15.04 (3,806: 4 a
#: hop) with a forwarding closure per hop and ``PacketTap.record`` at
#: delivery; 19.04 (4,818: 6 a hop) with a link's ``_tx_done`` call per
#: hop;
#: 29.11 (7,364) while a source was a generator process with a
#: ``Timeout`` per packet sending through a ``DatagramSocket``.
XTRAFFIC_PACKET_BUDGET = 1.24

_OBS_DIR = os.path.dirname(repro.obs.__file__) + os.sep
_CLIENT_DIR = os.path.dirname(repro.client.__file__) + os.sep


def _profiled_run(tracer=None, sampler=False, duration_s=2.0):
    """Counts of a 2-viewer, 2 s star run: (Python calls, those whose
    code lives under ``repro/obs/`` as a pair — entered while the
    simulation ran, entered while results were collected —, RTP packets
    delivered, sampler ticks, heap entries fired)."""
    return _profiled_run_and_client(tracer, sampler, duration_s)[0]


def _profiled_run_and_client(tracer=None, sampler=False, duration_s=2.0):
    """:func:`_profiled_run`'s counts, and the client's share: (Python
    calls under ``repro/client/`` while the simulation ran, frames
    played)."""
    eng = ServiceEngine(EngineConfig(seed=7), tracer=tracer)
    eng.add_server("srv1",
                   documents={"doc": (av_markup(duration_s, False), "t")})
    calls = 0
    obs_calls = [0, 0]
    client_calls = 0

    def count(frame, event, arg):
        nonlocal calls, client_calls
        if event == "call":
            calls += 1
            filename = frame.f_code.co_filename
            if filename.startswith(_OBS_DIR):
                obs_calls[not eng.sim._running] += 1
            elif eng.sim._running and filename.startswith(_CLIENT_DIR):
                client_calls += 1

    if sampler:
        eng.attach_timeseries()
    # an earlier run's sampler is a suspended generator in a garbage
    # cycle; closing it enters its frame, so collect it before counting
    gc.collect()
    sys.setprofile(count)
    try:
        pop = eng.orchestrator.run_population(2, "srv1", "doc",
                                              stagger_s=0.3)
    finally:
        sys.setprofile(None)
    assert len(pop.completed()) == 2
    ticks = eng.timeseries_sampler.series.ticks if sampler else 0
    played = sum(s.frames_played for o in pop.outcomes
                 for s in o.result.streams.values())
    return ((calls, tuple(obs_calls),
             sum(eng.network.tap.count_by_flow["RTP"].values()), ticks,
             eng.sim.events_fired),
            (client_calls, played))


def test_python_calls_per_delivered_rtp_packet_within_budget():
    _profiled_run()  # first use fills import-time and memo caches
    calls, obs_calls, packets, _, fired = _profiled_run()
    assert packets == 764
    assert calls / packets <= BUDGET, (calls, packets)
    # while the simulation runs, tracing off costs an attribute check,
    # never a call into obs/; scoring the sessions afterwards does
    assert obs_calls == (0, 2 * SCORING_CALLS_PER_SESSION)
    # and it is a count: the same run again enters the same functions
    assert _profiled_run() == (calls, obs_calls, packets, 0, fired)
    # twice the document, twice the packets and frames, the same scoring
    longer = _profiled_run(duration_s=4.0)
    assert longer[2] > 1.9 * packets
    assert longer[1] == obs_calls


def test_python_calls_per_played_frame_in_the_client_within_budget():
    _profiled_run()  # fill the caches
    run, (client_calls, played) = _profiled_run_and_client()
    assert played == 300
    assert client_calls / played <= CLIENT_FRAME_BUDGET, client_calls
    assert _profiled_run_and_client() == (run, (client_calls, played))


def test_watching_costs_a_counted_number_of_calls():
    """What the 5% wall-clock overhead gates promised, as exact counts."""
    _profiled_run(FlightRecorder(), sampler=True)  # fill the caches
    plain, _, packets, _, fired = _profiled_run()

    ring = FlightRecorder()
    recorded = _profiled_run(ring)
    assert recorded[2] == packets  # the run itself is the same run
    # 96 while the four frame pumps and the four playouts were processes:
    # their ``process.spawn`` / ``process.finish`` pairs (16 emits, 5
    # calls each) went with the generators
    assert len(ring.events) == 80 == sum(ring.kind_counts().values())
    assert recorded[4] == fired  # it plans what the plain run plans
    per_event = (recorded[0] - plain) / len(ring.events)
    assert per_event <= RING_EVENT_BUDGET, (recorded, plain)
    assert _profiled_run(FlightRecorder()) == recorded

    sampled = _profiled_run(sampler=True)
    assert sampled[2:4] == (packets, 14)
    per_tick = (sampled[0] - plain) / sampled[3]
    assert per_tick <= SAMPLER_TICK_BUDGET, (sampled, plain)
    assert _profiled_run(sampler=True) == sampled


def _profiled_background(traffic):
    """Python calls of 3 s of an engine nobody uses, the packets its
    default client discarded, and the heap rewrites the run made."""
    eng = ServiceEngine(EngineConfig(seed=7, traffic=traffic))
    calls = 0
    rewrites = []
    rewrite = eng.sim.rewrite
    eng.sim.rewrite = lambda edit: (rewrites.append(edit), rewrite(edit))

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    sys.setprofile(count)
    try:
        eng.sim.run(until=3.0)
    finally:
        sys.setprofile(None)
    return calls, eng.network.node(eng.CLIENT).rx_discarded, len(rewrites)


@pytest.mark.parametrize("kind, packets", [("poisson", 253), ("onoff", 108)],
                         ids=["poisson", "onoff"])
def test_a_cross_traffic_packet_costs_a_counted_number_of_calls(kind,
                                                                packets):
    """A source plans nothing past now, so nothing it sends is ever
    taken back: no heap rewrite, an ON/OFF source's first burst
    included (ROADMAP 12(b))."""
    source = [TrafficConfig(kind=kind, rate_bps=1.5e6,
                            packet_bytes=1500, start_at=0.5, stop_at=2.5)]
    _profiled_background(source)  # fill the caches
    idle = _profiled_background([])
    assert idle == (1, 0, 0)  # Simulator.run itself
    calls, discarded, rewrites = _profiled_background(source)
    assert discarded == packets
    assert rewrites == 0
    assert (calls - idle[0]) / packets <= XTRAFFIC_PACKET_BUDGET, calls
    assert _profiled_background(source) == (calls, packets, 0)


def test_the_tap_holds_nothing_that_grows_with_packets():
    """Memory, budgeted the same way: by what is held, not by RSS."""
    eng = ServiceEngine(EngineConfig(seed=7))
    eng.add_server("srv1", documents={"doc": (av_markup(2.0, False), "t")})
    pop = eng.orchestrator.run_population(2, "srv1", "doc", stagger_s=0.3)
    assert len(pop.completed()) == 2
    tap = eng.network.tap
    packets = sum(sum(flows.values()) for flows in tap.count_by_flow.values())
    flows = sum(len(flows) for flows in tap.count_by_flow.values())
    entries = flows + len(tap.bytes_by_protocol) + len(eng.network.nodes)
    assert packets > 20 * entries

    def held(value):
        """Entries a container holds, those of nested ones included."""
        if isinstance(value, dict):
            return len(value) + sum(held(v) for v in value.values())
        return len(value) if hasattr(value, "__len__") else 0

    sized = {name: held(value) for name, value in vars(tap).items()}
    assert 0 < max(sized.values()) <= entries, sized
