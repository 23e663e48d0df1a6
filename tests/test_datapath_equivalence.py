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
"""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig, TrafficConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.faults import population_digest
from repro.faults.scenarios import run_chaos
from repro.net import cdn_stack
from repro.shard.bench import run_sharded, shard_workload

SEED = 11


def _population(viewers, duration_s, stagger_s, *, with_images=True,
                layers=None, **config):
    eng = ServiceEngine(
        EngineConfig(seed=SEED, admission_capacity_bps=400e6, **config),
        layers=layers)
    eng.add_server("srv1", documents={
        "doc": (av_markup(duration_s, with_images), "pin")})
    return eng.orchestrator.run_population(
        viewers, "srv1", "doc", stagger_s=stagger_s)


def _star_clean():
    return _population(4, 3.0, 0.4)


def _star_impaired():
    """Gilbert-Elliott access loss plus Poisson cross traffic."""
    traffic = [TrafficConfig(kind="poisson", rate_bps=7.5e6,
                             packet_bytes=1500, start_at=0.5, stop_at=5.0,
                             target=f"client{i}") for i in (1, 3)]
    return _population(4, 3.0, 0.4, loss_p_gb=0.02, loss_bad=0.3,
                       traffic=traffic)


def _cdn_shared():
    """Stagger 0: every viewer's packets tie at the same instants."""
    return _population(8, 2.0, 0.0, with_images=False,
                       layers=cdn_stack(clients_per_region=4),
                       shared_flows=True)


#: the tracer's own emit counters that count kernel bookkeeping, not
#: service behaviour: heap entries fired and processes spawned
KERNEL_COUNTERS = ("kind=kernel.event", "kind=process.spawn")


def _chaos_crash_doc():
    """Traced, as ``repro chaos`` runs it; (document, kernel counters)."""
    doc = run_chaos("crash", smoke=True).population.to_dict()
    emits = doc["metrics"]["_registry"]["trace_events"]
    return doc, {kind: emits.pop(kind) for kind in KERNEL_COUNTERS}


def _chaos_crash():
    """The traced document minus ``KERNEL_COUNTERS``.

    A traced population carries the tracer's per-kind emit counts, and
    those two are exactly what event-driven links lower; they are
    asserted on their own below instead of being re-pinned.
    """
    return population_digest(_chaos_crash_doc()[0])


PINS = {
    "star_clean": (
        lambda: population_digest(_star_clean()),
        "fa2e80973299050c898cf0ed92e3bf2d39f1d96409d9138809aabfbd14cb883f"),
    "star_impaired": (
        lambda: population_digest(_star_impaired()),
        "1ea6a96123c6e51f7957241298d74e5ca14ecb685ef6d7dc88d32b358a631f27"),
    "cdn_shared": (
        lambda: population_digest(_cdn_shared()),
        "cfd556b93268b8aff171841eb4c6ec81b26e3b725887afd2cc992555e4c96d41"),
    "chaos_crash": (
        _chaos_crash,
        "12d1ae1a6afcf9818686e34b5b3cdaac9e4c521d6ece74c0275b1b79631a938d"),
    "chaos_crash_untraced": (
        lambda: run_chaos("crash", smoke=True, trace=False).digest,
        "c997a52df4e62ea71f15be159ce90e129c99380820f687c9bc616abfe2ed0405"),
    "shard_k2": (
        lambda: run_sharded(
            8, 2, seed=7, cell_clients=4,
            workload=shard_workload(duration_s=1.5, stagger_s=0.25)).digest,
        "3884505833aeb8771a8969b87b245e994f6e3410333870000c9b477b547aa271"),
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
    transmitted once in this run.
    """
    doc, kernel = _chaos_crash_doc()
    links = 14
    transmissions = doc["metrics"]["_registry"]["trace_events"][
        "kind=link.enqueue"]
    assert transmissions == 5622
    assert kernel == {
        "kind=kernel.event": 19503 - transmissions - links,
        "kind=process.spawn": 52 - links,
    }
