"""One cell is the monolithic run: a shard cell is ``run_population`` on
a slice.

A sharded run of ``n`` viewers in one cell of ``n`` runs the same
engine, the same viewers and the same sessions as ``run_scenario`` at
that cell's seed, so the two must give equal outcomes, equal event
counts and, once merged, the same digest. A cell that named or ordered
its sessions differently from the monolithic run would fail here.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.faults import population_digest
from repro.faults.scenarios import SCENARIOS, populate
from repro.obs.bench import run_scenario
from repro.shard.bench import run_sharded, shard_workload
from repro.shard.plan import ShardPlan
from repro.shard.worker import run_cell
from tests.test_datapath_equivalence import PINS

STAR_ROWS = sorted(name for name, row in SCENARIOS.items()
                   if row.topology == "star")


def _smoke(row):
    """The row at the size ``run_scenario(smoke=True)`` runs it."""
    return dataclasses.replace(row, duration_s=row.smoke_duration_s)


def _cell_seed(n, seed):
    return ShardPlan(n_clients=n, n_shards=1, cell_clients=n,
                     seed=seed).cell_seed(0)


def test_the_star_rows_are_the_seven_shardable_scenarios():
    assert len(STAR_ROWS) == 7


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("name", STAR_ROWS)
def test_one_cell_is_the_monolithic_run(name, seed):
    row = SCENARIOS[name]
    n = row.smoke_clients
    cell_seed = _cell_seed(n, seed)
    doc = run_cell(_smoke(row), 0, 0, n, cell_seed)
    mono = run_scenario(name, smoke=True, seed=cell_seed)
    assert doc["population"]["outcomes"] == \
        mono.population.to_dict()["outcomes"]
    assert doc["events"] == mono.artifact["events"]
    assert population_digest(doc["population"]) == mono.digest


def test_a_control_arm_is_a_row_value():
    """``retry=False`` is a field of the row, so a cell runs the
    control arm with no plumbing of its own: the partition strands
    sessions in the cell as it does on one engine."""
    row = SCENARIOS["partition"]
    n = row.smoke_clients
    cell_seed = _cell_seed(n, 3)
    doc = run_cell(dataclasses.replace(_smoke(row), retry=False), 0, 0, n,
                   cell_seed)
    mono = run_scenario("partition", smoke=True, retry=False,
                        seed=cell_seed)
    assert doc["population"]["outcomes"] == \
        mono.population.to_dict()["outcomes"]
    assert doc["events"] == mono.artifact["events"]
    assert population_digest(doc["population"]) == mono.digest
    assert mono.artifact["completed"] < n


def test_a_one_cell_sharded_run_has_the_monolithic_digest():
    """Forked, supervised and merged, one cell still is the run."""
    row = SCENARIOS["crash"]
    n = row.smoke_clients
    result = run_sharded(n, 1, seed=3, cell_clients=n,
                         workload=_smoke(row))
    assert result.ok
    assert result.digest == run_scenario(
        "crash", smoke=True, seed=_cell_seed(n, 3)).digest


def test_a_slice_names_its_viewers_from_first():
    row = _smoke(SCENARIOS["population_clean"])
    _, pop = populate(row, 3, 5, first=12)
    assert [(o.client_node, o.user_id, o.session_id) for o in pop] == [
        (f"client{g}", f"viewer{g}", f"sess-{g}") for g in (13, 14, 15)]
    assert [o.result.qoe["session"] for o in pop] == \
        ["sess-13", "sess-14", "sess-15"]
    assert all(o.completed for o in pop)


def test_first_zero_is_the_whole_population():
    """``first=0`` is the run pinned as ``star_clean``."""
    eng = ServiceEngine(EngineConfig(seed=11,
                                     admission_capacity_bps=400e6))
    eng.add_server("srv1", documents={"doc": (av_markup(3.0, True), "pin")})
    pop = eng.orchestrator.run_population(4, "srv1", "doc", stagger_s=0.4,
                                          first=0)
    assert population_digest(pop) == PINS["star_clean"][1]


def test_a_workload_refuses_a_duration_or_stagger_beside_it():
    """A workload carries its own size: ``run_sharded(n, 1,
    workload=row)`` would otherwise run the row's full duration
    whatever ``duration_s`` said."""
    workload = shard_workload(duration_s=1.5, stagger_s=0.25)
    for extra in ({"duration_s": 3.0}, {"stagger_s": 0.4}):
        with pytest.raises(ValueError, match="duration_s and stagger_s"):
            run_sharded(2, 1, cell_clients=2, workload=workload, **extra)
