"""Data-path equivalence: one pinned digest per run, whoever watched.

Each hex string below is ``population_digest`` over the *whole* result
document of one small run. A change to the packet data path that is
meant only to be faster must reproduce every one of them; if one
moves, the order of equal-time events changed — restore the order, do
not re-pin.

The pins were re-recorded once, when results stopped carrying the
observer's books: each is the SHA-256 of the canonical JSON the commit
before (``4ac9ab8``, "PR 19") produces for the same run with every
``"metrics"`` key (the population's and each result's) and every
time-series column's ``"resample"`` key deleted — the keys that change
removed, and nothing else. To re-check, run the builders below on that
tree (``git archive 4ac9ab8 src | tar -x -C /tmp/parent``), delete
``doc["metrics"]``, each ``outcome["result"]["metrics"]`` and each
``doc["timeseries"]["columns"][c]["resample"]`` from ``to_dict()`` (the
merged document for ``shard_k2``) and hash what is left.

Before that the same runs were pinned over projections of the document
(each ``result.qoe`` blanked, ``event_queue_depth`` dropped) from the
commit *before* links became event-driven (``09c8b7c``, "PR 11") and
held, unedited, through every data-path change since; the chain of
equalities is in CHANGES.md. A traced ``chaos_crash`` pin existed
beside the untraced one while a traced document carried emit counters;
a document no longer depends on who watched
(``test_a_result_document_does_not_depend_on_who_watched``), so one
pin per run is all there is to hold.

One column counts heap entries rather than anything simulated:
``timeseries.columns.event_queue_depth``, ``len(sim._heap)`` at each
tick. When a link began scheduling a packet's arrival on accepting it
(one heap entry per packet-hop, where there were two), a packet waiting
in a link queue came to hold an entry, and that column rose on the one
pinned run that samples it: ``chaos_crash_untraced`` was re-pinned
then, once. ``PINS_WITHOUT_HEAP_DEPTH`` holds the other half of that
claim: each is the digest of the same document with that column
deleted, recorded on the commit before (``f57d545``) and equal on
every commit since. The chain of equalities: ``09c8b7c`` projections =
``4ac9ab8`` documents minus the observer's keys = ``f57d545``
documents = today's documents, ``event_queue_depth`` aside.

``shard_k2`` moved once more, in both sets, and not for the data path:
its merged ``service`` document used to merge loads by a rule of its
own (samples added across cells, peak = the largest single cell's) and
so disagreed with the merged series it carried. Its loads are now read
off that series. Against ``c6189ee`` the merged document differs only
in ``service.samples`` (28 -> 14 = the series' ticks), each server's
``samples`` (28 -> 14), ``audsrv`` / ``vidsrv`` ``peak_streams`` (4 ->
8) and ``mean_streams`` (doubled), and ``service.regions.origin``'s
``samples`` / ``peak_streams`` / ``mean_streams`` — each now what the
merged ``streams.<ms>`` columns give.

``cdn_shared`` and ``chaos_crash_untraced`` moved once, in both sets,
when a stream's ``buffer_underflows`` began counting its rebuffering
episodes: it used to count only pops of an empty buffer, which the
playout never makes, so it was 0 everywhere. Against ``f61b076`` the
documents differ in that field and nowhere else: 0 -> 1 in each of
``cdn_shared``'s 16 streams, each of which stalls once at its start,
and in each of ``chaos_crash``'s 8, each of which stalls once across
the failover. The other three runs have no gap and held.

``chaos_crash_untraced`` and ``shard_k2`` moved once more, in ``PINS``
only, when a reliable sender stopped arming its retransmission timer
twice per ACK: the superseded arm was a dead heap entry, so
``event_queue_depth`` is all that differs from ``627f3e3``, and
``PINS_WITHOUT_HEAP_DEPTH`` held.
"""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig, TrafficConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.faults import population_digest
from repro.faults.digest import canonical_json
from repro.net import cdn_stack
from repro.obs.bench import run_scenario
from tests.helpers import select
from repro.obs.flightrec import FlightRecorder
from repro.obs.qoe import score_session
from repro.obs.tracer import RecordingTracer
from repro.shard.bench import run_sharded, shard_workload

SEED = 11


def _population(viewers, duration_s, stagger_s, *, with_images=True,
                layers=None, tracer=None, **config):
    eng = ServiceEngine(
        EngineConfig(seed=SEED, admission_capacity_bps=400e6, **config),
        layers=layers, tracer=tracer)
    eng.add_server("srv1", documents={
        "doc": (av_markup(duration_s, with_images), "pin")})
    return eng.orchestrator.run_population(
        viewers, "srv1", "doc", stagger_s=stagger_s)


def _star_clean(tracer=None):
    return _population(4, 3.0, 0.4, tracer=tracer)


def _star_impaired(tracer=None):
    """Gilbert-Elliott access loss plus Poisson cross traffic."""
    traffic = [TrafficConfig(kind="poisson", rate_bps=7.5e6,
                             packet_bytes=1500, start_at=0.5, stop_at=5.0,
                             target=f"client{i}") for i in (1, 3)]
    return _population(4, 3.0, 0.4, loss_p_gb=0.02, loss_bad=0.3,
                       traffic=traffic, tracer=tracer)


def _cdn_shared(tracer=None):
    """Stagger 0: every viewer's packets tie at the same instants."""
    return _population(8, 2.0, 0.0, with_images=False,
                       layers=cdn_stack(clients_per_region=4),
                       shared_flows=True, tracer=tracer)


def _sharded():
    return run_sharded(
        8, 2, seed=7, cell_clients=4,
        workload=shard_workload(duration_s=1.5, stagger_s=0.25))


def _shard_k2():
    return _sharded().digest


PINS = {
    "star_clean": (
        lambda: population_digest(_star_clean()),
        "909e0c0575a2aaff95ad941d3f31f8db1cc35f82a777d74c3cb2992847e1036b"),
    "star_impaired": (
        lambda: population_digest(_star_impaired()),
        "ba3aeff08fd0f6ec826201cb3a3e45b96eb7ebb0bb05eb10bdef16f808ddc33a"),
    "cdn_shared": (
        lambda: population_digest(_cdn_shared()),
        "2b3c906548f6852446324dc6585901c4cedb3ea08f3cec9fd4fcdbd5f22a60bb"),
    "chaos_crash_untraced": (
        lambda: run_scenario("crash", smoke=True).digest,
        "db3cccc1c224fb35a966a5bef098de65dce21dfde138b4df8dcb2b555a8b5b1c"),
    "shard_k2": (
        _shard_k2,
        "268af26a7b24d0113b5a0c09536cb5ef8a61cb3ded854f43ab798856ba0587ff"),
}


def _without_heap_depth(doc):
    """``doc`` with the one column that counts heap entries deleted."""
    if doc.get("timeseries"):
        del doc["timeseries"]["columns"]["event_queue_depth"]
    return doc


def _digest_without_heap_depth(build):
    return lambda: population_digest(_without_heap_depth(build().to_dict()))


PINS_WITHOUT_HEAP_DEPTH = {
    "star_clean": (
        _digest_without_heap_depth(_star_clean),
        "909e0c0575a2aaff95ad941d3f31f8db1cc35f82a777d74c3cb2992847e1036b"),
    "star_impaired": (
        _digest_without_heap_depth(_star_impaired),
        "ba3aeff08fd0f6ec826201cb3a3e45b96eb7ebb0bb05eb10bdef16f808ddc33a"),
    "cdn_shared": (
        _digest_without_heap_depth(_cdn_shared),
        "2b3c906548f6852446324dc6585901c4cedb3ea08f3cec9fd4fcdbd5f22a60bb"),
    "chaos_crash_untraced": (
        _digest_without_heap_depth(
            lambda: run_scenario("crash", smoke=True).population),
        "c68dae8873be0c86237fbb07763b9fa72169e906ded91506141661f611409da1"),
    "shard_k2": (
        lambda: population_digest(_without_heap_depth(_sharded().merged)),
        "fd5594fd7c1a3e315e5d09616d43122193e1a2bd493b4e994074b554efc7ddc9"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_population_digest_is_pinned(name):
    run, pinned = PINS[name]
    assert run() == pinned


@pytest.mark.parametrize("name", sorted(PINS_WITHOUT_HEAP_DEPTH))
def test_digest_without_heap_depth_is_the_two_entry_links(name):
    """Everything but ``event_queue_depth`` is what links with two heap
    entries per packet-hop produced."""
    run, pinned = PINS_WITHOUT_HEAP_DEPTH[name]
    assert run() == pinned


def test_chaos_crash_kernel_counters_fell_by_the_link_machinery(tmp_path):
    """Two kernel counts of the chaos-crash run, exactly.

    On ``09c8b7c`` the scenario fired 19503 heap entries and spawned 52
    processes. Each of its 14 links was a process (one spawn, one start
    entry) and each link transmission cost a ``StoreGet`` entry; every
    packet a link accepts (``link.enqueue``) is transmitted once in this
    run. Through ``f57d545`` each transmission cost one entry more, the
    link's ``_tx_done`` (today a link schedules only the packet's
    arrival, when it accepts it). Through ``e05449f`` a second DES-clock
    sampler ran beside the first: one more spawn, one start entry and
    one timer entry on each of the run's 25 ticks. Through ``ad1d5ae``
    every frame pump and every playout was a process too: one spawn
    each, and a finish entry nobody waited on (the start entry stays, as
    ``call_later(0, begin)``). A pump the crash stopped cost an
    interrupt wakeup besides; it now costs the ``finished`` entry a
    stopped pump used to withhold, so those two terms cancel. Through
    ``627f3e3`` a reliable sender armed its retransmission timer twice
    on each ACK that left data outstanding (in ``_on_ack``, then again
    in ``_pump``); the first arm's entry fired as a stale token.
    """
    run = run_scenario("crash", smoke=True,
                       flight_dump=str(tmp_path / "flight.jsonl"))
    recorder = run.flight_recorder
    emits = recorder.kind_counts()
    links = 14
    second_sampler = 25 + 1  # ticks + the process's start entry
    transmissions = emits["link.enqueue"]
    assert transmissions == 5622
    # 4 viewers x (A, V), each pumped twice: until the crash by the
    # server that dies, from there on by the replica
    pumps, playouts = 16, 8
    finish_entries = pumps + playouts
    (crash,) = select(recorder, kind="fault.crash")
    interrupt_wakeups = stopped_finished = crash.args["streams"]
    assert stopped_finished == 8
    superseded_rto_arms = 20
    assert emits["kernel.event"] == (
        19503 - transmissions - links - second_sampler
        - finish_entries - interrupt_wakeups + stopped_finished
        - transmissions - superseded_rto_arms)
    assert emits["process.spawn"] == 52 - links - 1 - pumps - playouts
    assert "process.interrupt" not in emits
    # the kernel's own count, which an unrecorded run has too
    assert run.engine.sim.events_fired == emits["kernel.event"]
    assert run.digest == PINS["chaos_crash_untraced"][1]


# ---------------------------------------------------------------------------
# QoE without a recorder: the endpoints' numbers against the trace join
# ---------------------------------------------------------------------------

def _star_rejecting(tracer=None):
    """Admission sized for one viewer: the other five are refused."""
    eng = ServiceEngine(EngineConfig(seed=SEED, admission_capacity_bps=4e6),
                        tracer=tracer)
    eng.add_server("srv1", documents={"doc": (av_markup(3.0, True), "pin")})
    return eng.orchestrator.run_population(6, "srv1", "doc", stagger_s=0.2)


def _atm_lossy(tracer=None):
    """Cell loss on ATM access links: one lost cell drops the packet."""
    return _population(4, 3.0, 0.4, atm_access=True, loss_p_gb=0.002,
                       loss_bad=0.3, tracer=tracer)


QOE_SCENARIOS = {
    "star_clean": _star_clean,
    "star_impaired": _star_impaired,
    "cdn_shared": _cdn_shared,
    "chaos_crash": lambda tracer=None: run_scenario(
        "crash", smoke=True, tracer=tracer).population,
    "star_rejecting": _star_rejecting,
    "atm_lossy": _atm_lossy,
}


@pytest.fixture(scope="module")
def watched_runs():
    """Per scenario, an untraced, a control-tier and a detail-traced
    run: each one's whole document in canonical JSON and its QoE dicts
    by session, plus the trace join's QoE over the recording."""
    def qoe(population):
        return {o.session_id: o.result.qoe for o in population.outcomes}

    runs = {}
    for name, scenario in QOE_SCENARIOS.items():
        detail = RecordingTracer()
        populations = {"untraced": scenario(),
                       "control": scenario(FlightRecorder()),
                       "detail": scenario(detail)}
        events = list(detail.events)
        runs[name] = {
            "document": {who: canonical_json(pop.to_dict())
                         for who, pop in populations.items()},
            "qoe": {who: qoe(pop) for who, pop in populations.items()},
            "reference": {o.session_id: score_session(
                events, o.session_id).to_dict()
                for o in populations["detail"].outcomes},
            "completed": {o.session_id: o.completed
                          for o in populations["detail"].outcomes},
        }
    return runs


@pytest.mark.parametrize("name", sorted(QOE_SCENARIOS))
def test_a_result_document_does_not_depend_on_who_watched(watched_runs,
                                                          name):
    """The whole document, byte for byte: no key blanked or projected
    away, so there is one digest per run."""
    document = watched_runs[name]["document"]
    assert '"metrics"' not in document["untraced"]
    assert document["control"] == document["untraced"]
    assert document["detail"] == document["untraced"]


@pytest.mark.parametrize("name", sorted(QOE_SCENARIOS))
def test_qoe_needs_no_recorder(watched_runs, name):
    """One producer: whatever watches, a session scores the same, and
    the score is the trace join's, exact on every key (``latency.sum``
    included: the frame ledger keeps send order, which is the order the
    join adds in)."""
    run = watched_runs[name]
    qoe = run["qoe"]
    assert qoe["untraced"] and all(qoe["untraced"].values())
    assert qoe["untraced"] == qoe["detail"]
    assert qoe["control"] == qoe["detail"]
    assert qoe["detail"] == run["reference"]


def test_qoe_equivalence_is_not_vacuous(watched_runs):
    """Every number the scorer takes is nonzero somewhere in the set,
    failed sessions are scored too, and cells are lost on the ATM arm."""
    sessions = [q for run in watched_runs.values()
                for q in run["qoe"]["untraced"].values()]
    for key in ("stall_count", "frames_dropped", "frames_lost",
                "skew_violations", "degraded_time_s", "frames_played"):
        assert any(q[key] > 0 for q in sessions), key
    assert any(q["latency"]["count"] > 0 for q in sessions)
    rejecting = watched_runs["star_rejecting"]
    refused = [sid for sid, ok in rejecting["completed"].items() if not ok]
    assert len(refused) == 5
    for sid in refused:
        assert rejecting["qoe"]["untraced"][sid]["frames_sent"] == 0
        assert rejecting["qoe"]["untraced"][sid]["duration_s"] > 0
    assert any(q["frames_lost"] > 0
               for q in watched_runs["atm_lossy"]["qoe"]["untraced"].values())
