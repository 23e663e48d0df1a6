"""Data-path equivalence: digests pinned before the link/kernel rewrite.

The hex strings below were computed on the commit *before* links became
event-driven and ``call_later`` stopped allocating a ``Timeout``
(``09c8b7c``, "PR 11: [benchmark] Define the repo benchmark"). A
change to the packet data path that is meant only to be faster must
reproduce every one of them; if one moves, the order of equal-time
events changed — restore the order, do not re-pin.

To check the pins against that commit, run this file on its tree (only
``test_chaos_crash_kernel_counters_fell_by_the_link_machinery``, which
describes the rewrite itself, fails there)::

    git archive 09c8b7c src | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python -m pytest \
        tests/test_datapath_equivalence.py -p no:cacheprovider

The ``chaos_crash``, ``chaos_crash_untraced`` and ``shard_k2`` pins are
over the document minus ``timeseries.columns.event_queue_depth`` and
were computed on ``e05449f`` ("PR 12", the commit before the two
DES-clock samplers became one). That column is the one artifact value
the fold moves: the gauge no longer counts the second sampler's pending
timer, so it reads exactly 1.0 lower on every tick. Everything else in
the three documents — the ``service`` report included — is pinned. To
re-check, run the same recipe with ``e05449f``: the six pins hold there
and the kernel-counter test fails by the 26 entries and 1 spawn it
spells out.

Since session results stopped needing a recorder, every run carries a
QoE dict per session. The four untraced pins (``star_clean``,
``star_impaired``, ``cdn_shared``, ``chaos_crash_untraced``) are over the
document with each ``result.qoe`` blanked, as it was when they were
computed, so the data-path referee is untouched; the QoE they now carry
is what ``test_qoe_needs_no_recorder`` checks. ``chaos_crash`` (traced)
holds unchanged, QoE included. ``shard_k2`` was re-pinned once: cells
run untraced, so the merged document lost the trace-emit counters
(``metrics`` and each session's ``metrics``) and nothing else — the new
string is what the commit before (``0b19516``) yields over ``merged``
with those two blanked.
"""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig, TrafficConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.faults import population_digest
from repro.faults.scenarios import run_chaos
from repro.net import cdn_stack
from repro.obs.flightrec import FlightRecorder
from repro.obs.qoe import score_session
from repro.obs.tracer import RecordingTracer
from repro.shard.bench import run_sharded, shard_workload
from repro.shard.merge import merged_digest

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


#: the tracer's own emit counters that count kernel bookkeeping, not
#: service behaviour: heap entries fired and processes spawned
KERNEL_COUNTERS = ("kind=kernel.event", "kind=process.spawn")


def _without_queue_depth(doc):
    """Drop the one column that counted the second sampler's timer."""
    doc["timeseries"]["columns"].pop("event_queue_depth")
    return doc


def _without_qoe(population):
    """The document as an untraced run produced it when it was pinned."""
    doc = population.to_dict()
    for outcome in doc["outcomes"]:
        outcome["result"]["qoe"] = {}
    return doc


def _chaos_crash_doc():
    """Traced, as ``repro chaos`` runs it; (document, kernel counters)."""
    doc = _without_queue_depth(
        run_chaos("crash", smoke=True).population.to_dict())
    emits = doc["metrics"]["_registry"]["trace_events"]
    return doc, {kind: emits.pop(kind) for kind in KERNEL_COUNTERS}


def _chaos_crash():
    """The traced document minus ``KERNEL_COUNTERS``.

    A traced population carries the tracer's per-kind emit counts, and
    those two are exactly what event-driven links (and one sampler
    process instead of two) lower; they are asserted on their own
    below instead of being re-pinned.
    """
    return population_digest(_chaos_crash_doc()[0])


def _chaos_crash_untraced():
    return population_digest(_without_queue_depth(_without_qoe(
        run_chaos("crash", smoke=True, trace=False).population)))


def _shard_k2():
    """``ShardedRunResult.digest`` over ``merged`` minus the column."""
    merged = run_sharded(
        8, 2, seed=7, cell_clients=4,
        workload=shard_workload(duration_s=1.5, stagger_s=0.25)).merged
    return merged_digest(_without_queue_depth(merged))


PINS = {
    "star_clean": (
        lambda: population_digest(_without_qoe(_star_clean())),
        "fa2e80973299050c898cf0ed92e3bf2d39f1d96409d9138809aabfbd14cb883f"),
    "star_impaired": (
        lambda: population_digest(_without_qoe(_star_impaired())),
        "1ea6a96123c6e51f7957241298d74e5ca14ecb685ef6d7dc88d32b358a631f27"),
    "cdn_shared": (
        lambda: population_digest(_without_qoe(_cdn_shared())),
        "cfd556b93268b8aff171841eb4c6ec81b26e3b725887afd2cc992555e4c96d41"),
    "chaos_crash": (
        _chaos_crash,
        "f4fd75656d9f248ef76e1bded2f57c6369a9101fe3df6090f43ed60ac47a73f3"),
    "chaos_crash_untraced": (
        _chaos_crash_untraced,
        "b4038821e5de63163a2102209e11502ff87e83e3b8d1814c51a9ebe2f655ad10"),
    "shard_k2": (
        _shard_k2,
        "9cad1d09c62b6e1a9ed4d42bff2cfca609f0fb5d319a6587d665c0c235a0658a"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_population_digest_is_pinned(name):
    run, pinned = PINS[name]
    assert run() == pinned


def test_chaos_crash_kernel_counters_fell_by_the_link_machinery():
    """The two counters left out of the ``chaos_crash`` pin, exactly.

    On ``09c8b7c`` the scenario fired 19503 heap entries and spawned 52
    processes. Each of its 14 links was a process (one spawn, one start
    entry) and each link transmission cost one ``StoreGet`` entry more
    than today; every packet a link accepts (``link.enqueue``) is
    transmitted once in this run. Through ``e05449f`` a second DES-clock
    sampler ran beside the first: one more spawn, one start entry and
    one timer entry on each of the run's 25 ticks.
    """
    doc, kernel = _chaos_crash_doc()
    links = 14
    second_sampler = 25 + 1  # ticks + the process's start entry
    transmissions = doc["metrics"]["_registry"]["trace_events"][
        "kind=link.enqueue"]
    assert transmissions == 5622
    assert kernel == {
        "kind=kernel.event": 19503 - transmissions - links - second_sampler,
        "kind=process.spawn": 52 - links - 1,
    }


# ---------------------------------------------------------------------------
# QoE without a recorder: the endpoints' numbers against the trace join
# ---------------------------------------------------------------------------

def _star_rejecting(tracer=None):
    """Admission sized for one viewer: the other five are refused."""
    eng = ServiceEngine(EngineConfig(seed=SEED, admission_capacity_bps=4e6),
                        tracer=tracer)
    eng.add_server("srv1", documents={"doc": (av_markup(3.0, True), "pin")})
    return eng.orchestrator.run_population(6, "srv1", "doc", stagger_s=0.2)


QOE_SCENARIOS = {
    "star_clean": _star_clean,
    "star_impaired": _star_impaired,
    "cdn_shared": _cdn_shared,
    "chaos_crash": None,  # needs a dump path: built in the fixture
    "star_rejecting": _star_rejecting,
}


@pytest.fixture(scope="module")
def qoe_runs(tmp_path_factory):
    """Per scenario: QoE dicts by session of an untraced, a control-tier
    and a detail-traced run, plus the trace join's over the recording."""
    def dicts(population):
        return {o.session_id: o.result.qoe for o in population.outcomes}

    def chaos_crash(tracer=None):
        """``run_chaos`` builds its own tracer: ours picks its tier and
        receives its recording."""
        if tracer is None:
            return run_chaos("crash", smoke=True, trace=False).population
        run = run_chaos(
            "crash", smoke=True, trace=tracer.detail,
            flight_dump=str(tmp_path_factory.mktemp("flight") / "f.jsonl"))
        tracer.events = run.flight_recorder.events
        return run.population

    runs = {}
    for name, scenario in QOE_SCENARIOS.items():
        scenario = scenario or chaos_crash
        detail = RecordingTracer()
        traced = scenario(detail)
        events = list(detail.events)
        runs[name] = {
            "untraced": dicts(scenario()),
            "control": dicts(scenario(FlightRecorder())),
            "detail": dicts(traced),
            "reference": {o.session_id: score_session(
                events, o.session_id).to_dict() for o in traced.outcomes},
            "completed": {o.session_id: o.completed
                          for o in traced.outcomes},
        }
    return runs


@pytest.mark.parametrize("name", sorted(QOE_SCENARIOS))
def test_qoe_needs_no_recorder(qoe_runs, name):
    """One producer: whatever watches, a session scores the same, and
    the score is the trace join's, exact on every key (``latency.sum``
    included: the frame ledger keeps send order, which is the order the
    join adds in)."""
    run = qoe_runs[name]
    assert run["untraced"] and all(run["untraced"].values())
    assert run["untraced"] == run["detail"]
    assert run["control"] == run["detail"]
    assert run["detail"] == run["reference"]


def test_qoe_equivalence_is_not_vacuous(qoe_runs):
    """Every number the scorer takes is nonzero somewhere in the set,
    and failed sessions are scored too."""
    sessions = [q for run in qoe_runs.values()
                for q in run["untraced"].values()]
    for key in ("stall_count", "frames_dropped", "frames_lost",
                "skew_violations", "degraded_time_s", "frames_played"):
        assert any(q[key] > 0 for q in sessions), key
    assert any(q["latency"]["count"] > 0 for q in sessions)
    rejecting = qoe_runs["star_rejecting"]
    refused = [sid for sid, ok in rejecting["completed"].items() if not ok]
    assert len(refused) == 5
    for sid in refused:
        assert rejecting["untraced"][sid]["frames_sent"] == 0
        assert rejecting["untraced"][sid]["duration_s"] > 0
