"""Plans taken back: one heap pass per take-back, and the run that never
planned as the referee.

A link plans a packet across the next link it owns
(``repro.net.link``); a traffic source plans nothing past now
(``repro.net.traffic``). A plan comes back off the heap when a link
goes down, when the routes change and when a second sender reaches an
owned link. Each of those is one ``Simulator.rewrite`` over the heap
whatever number of links it touches, and a fed link's pending packets
go back with no Python pass at all. The referee of every path here is
the same run with ``_plans_through = False`` on every link, which plans
nothing (``tests.helpers.never_planning``).
"""

from __future__ import annotations

import pytest

from repro.des import RngRegistry, Simulator
from repro.faults import population_digest
from repro.faults.scenarios import HORIZON_S, build_engine
from repro.net import Network, Packet
from repro.net.link import Link
from repro.net.traffic import PoissonTrafficSource
from repro.obs.bench import run_scenario
from repro.shard.bench import shard_workload
from tests.helpers import never_planning


def _count_rewrites(sim):
    """Wrap ``sim.rewrite``: ``[passes, entries the edits moved]``."""
    counts = [0, 0]
    rewrite = sim.rewrite

    def counted(edit):
        def counting(*entry):
            new = edit(*entry)
            counts[1] += new is not None
            return new

        counts[0] += 1
        rewrite(counting)

    sim.rewrite = counted
    return counts


def _flapped_population(n_clients):
    """A population of the scaling curve's cell, ``host:srv1 -> router``
    cut 0.5 s after the last arrival and raised 0.1 s later: the heap
    passes and entries moved by the cut, the router -> client links the
    uplink owned then, and the population."""
    workload = shard_workload(2.0, 0.25, with_images=False)
    eng = build_engine(workload, n_clients=n_clients, seed=11)
    sim, links = eng.sim, eng.network.links
    uplink = links["host:srv1", "router"]
    counts = _count_rewrites(sim)
    cut = {}

    def down():
        counts[:] = [0, 0]
        cut["owned"] = sum(1 for link in links.values()
                           if link._owner is uplink)
        uplink.set_up(False)
        cut["passes"], cut["moved"] = counts

    at = (n_clients - 1) * workload.stagger_s + 0.5
    sim.call_at(at, down)
    sim.call_at(at + 0.1, uplink.set_up, True)
    pop = eng.orchestrator.run_population(
        n_clients, "srv1", "doc", stagger_s=workload.stagger_s,
        horizon_s=HORIZON_S)
    return cut, pop


@pytest.mark.parametrize("n_clients", [32, 250])
def test_a_cut_uplink_takes_every_plan_back_in_one_heap_pass(n_clients):
    """The server's uplink owns the router's link to every client it
    ever sent to, live or not: the cut is one pass, not one per link."""
    cut, pop = _flapped_population(n_clients)
    assert cut["owned"] == n_clients
    assert cut["passes"] == 1
    assert cut["moved"] > 0
    assert len(pop.completed()) == n_clients


def test_a_flapped_population_is_the_run_that_never_plans(monkeypatch):
    """Shipped, the cut takes plans back mid-run; with nothing planned
    the population is the same, byte for byte. So is the flap smoke
    scenario, whose server link goes down and up three times."""
    cut, shipped = _flapped_population(8)
    assert cut["passes"] == 1 and cut["moved"] > 0
    flap = run_scenario("flap", smoke=True).digest
    with never_planning(monkeypatch):
        cut, referee = _flapped_population(8)
        assert cut["owned"] == cut["passes"] == 0
        assert run_scenario("flap", smoke=True).digest == flap
    assert population_digest(shipped) == population_digest(referee)


def _star(n_clients):
    """``s -> r -> c<k>`` with a port bound on each client: the arrivals
    as ``(client, seq, time)``, and the network."""
    sim = Simulator()
    net = Network(sim)
    for node in ("s", "r", *(f"c{k}" for k in range(n_clients))):
        net.add_node(node)
    net.add_link("s", "r", 10e6, 0.001)
    arrivals = []
    for k in range(n_clients):
        net.add_link("r", f"c{k}", 2e6, 0.002, queue_packets=4)
        net.node(f"c{k}").bind(
            1, lambda p, k=k: arrivals.append((k, p.seq, sim.now)))
    return net, arrivals


def _star_run(n_clients, change_at):
    """A burst from ``s`` to every client of :func:`_star`, the routes
    changed at ``change_at`` by a node added off the path: (arrivals,
    ``{"owned": links owned by a link then, "passes": heap passes and
    "moved": entries moved by the change}``)."""
    net, arrivals = _star(n_clients)
    sim = net.sim
    counts = _count_rewrites(sim)
    change = {}
    for seq in range(40):
        sim.call_at(seq * 0.0007, net.send,
                    Packet("s", f"c{seq % n_clients}", 1000, "UDP", "f", 1,
                           seq=seq))

    def add():
        counts[:] = [0, 0]
        change["owned"] = sum(1 for link in net.links.values()
                              if isinstance(link._owner, Link))
        net.add_node("far")
        net.add_link("r", "far", 1e6, 0.01)
        change["passes"], change["moved"] = counts

    sim.call_at(change_at, add)
    sim.run()
    return arrivals, change


def test_a_route_change_takes_every_plan_back_in_one_heap_pass(
        monkeypatch):
    """A node added mid-burst empties every table: the plans across all
    six owned links come back in one pass, and every packet arrives when
    it does in the run that never planned."""
    shipped, change = _star_run(6, 0.0105)
    assert change["owned"] == 6
    assert change["passes"] == 1 and change["moved"] > 0
    with never_planning(monkeypatch):
        referee, change = _star_run(6, 0.0105)
    assert change["owned"] == change["passes"] == 0
    assert shipped and shipped == referee


def _shared_uplink_run():
    """``x -> r -> y``, an 8 Mb/s Poisson source at ``x`` whose port 9
    at ``y`` is unbound (so it feeds ``x -> r`` and ``r -> y``), and 20
    packets sent from ``x`` to a port ``y`` binds, one each 13 ms from
    0.5 s: (the arrivals of the 20, heap passes, whether the source
    feeds at the end, and the packets it sent at an entry of their
    own)."""
    sim = Simulator()
    net = Network(sim)
    for node in "xry":
        net.add_node(node)
    net.add_duplex_link("x", "r", 10e6, 0.001)
    net.add_duplex_link("r", "y", 10e6, 0.002)
    counts = _count_rewrites(sim)
    got = []
    net.node("y").bind(1, lambda p: got.append((p.seq, sim.now)))
    source = PoissonTrafficSource(net, "x", "y",
                                  RngRegistry(seed=5).stream("t"),
                                  rate_bps=8e6)
    ticked = [0]
    emit = source._emit

    def counted():
        ticked[0] += 1
        emit()

    source._emit = counted
    for seq in range(20):
        sim.call_at(0.5 + 0.013 * seq, net.send,
                    Packet("x", "y", 500, "UDP", "f", 1, seq=seq))
    sim.run(until=1.5)
    return got, counts[0], source._links is not None, ticked[0]


def test_a_second_sender_on_a_sources_uplink_takes_its_plan_back(
        monkeypatch):
    """The source plans nothing past now: a packet someone else sends on
    its fed uplink has the source produce what it emitted before, and
    is admitted behind that, where a run that never planned admits it,
    with no heap pass. The source feeds on after the foreign packets,
    every one of its packets produced, none sent at an entry."""
    shipped, passes, feeds, ticked = _shared_uplink_run()
    with never_planning(monkeypatch):
        referee, referee_passes, referee_feeds, _ = _shared_uplink_run()
    assert len(shipped) == 20 and shipped == referee
    assert passes == referee_passes == 0
    assert feeds and ticked == 0
    assert not referee_feeds


def _fed_run(bind_at):
    """An 8 Mb/s Poisson source at ``x`` feeding ``r -> y`` until ``y``
    binds port 9 at ``bind_at``: (the packets port 9 got, as ``(seq,
    time)``, heap passes, entries put back off the feed)."""
    sim = Simulator()
    net = Network(sim)
    for node in "xry":
        net.add_node(node)
    net.add_link("x", "r", 10e6, 0.001)
    net.add_link("r", "y", 10e6, 0.002)
    counts = _count_rewrites(sim)
    restored = []
    restore = sim.restore
    sim.restore = lambda entries: (restored.append(len(entries)),
                                   restore(entries))
    got = []
    PoissonTrafficSource(net, "x", "y", RngRegistry(seed=5).stream("t"),
                         rate_bps=8e6)
    sim.call_at(bind_at, net.node("y").bind, 9,
                lambda p: got.append((p.seq, sim.now)))
    sim.run(until=1.5)
    return got, counts[0], sum(restored)


def test_a_fed_link_gives_its_packets_back_with_no_heap_pass(monkeypatch):
    """Binding the fed port turns the pending fed packets back into heap
    entries without a Python pass over the heap, and port 9 then sees
    what it sees in the run that never planned."""
    shipped, passes, restored = _fed_run(1.0)
    assert passes == 0 and restored > 0
    with never_planning(monkeypatch):
        referee, passes, restored = _fed_run(1.0)
    assert passes == restored == 0
    assert shipped and shipped == referee
