"""Sharding plan partition laws and population-merge algebra."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.digest import population_digest
from repro.obs.qoe import population_qoe
from repro.shard.bench import shard_workload
from repro.shard.merge import (
    empty_population_doc,
    merge_cell_docs,
    merge_population_docs,
    session_index,
)
from repro.shard.plan import ShardPlan
from repro.shard.worker import run_cell

# -- plan: deterministic partition --------------------------------------------


def test_cells_partition_clients_exactly():
    plan = ShardPlan(n_clients=21, n_shards=3, cell_clients=4, seed=5)
    covered = []
    for cell in range(plan.n_cells):
        lo, hi = plan.cell_bounds(cell)
        assert lo < hi
        covered.extend(range(lo, hi))
    assert covered == list(range(21))


def test_shards_partition_cells_for_any_k():
    plan = ShardPlan(n_clients=40, n_shards=1, cell_clients=4)
    for k in (1, 2, 3, 7, 100):
        p = ShardPlan(n_clients=40, n_shards=k, cell_clients=4)
        assert p.n_cells == plan.n_cells
        seen = sorted(c for s in range(k) for c in p.shard_cells(s))
        assert seen == list(range(p.n_cells))


def test_cell_seed_is_shard_count_invariant():
    """The determinism cornerstone: a cell's seed stream derives from
    (root seed, cell index) only — never from how many shards run."""
    for k in (1, 2, 4, 8):
        p = ShardPlan(n_clients=32, n_shards=k, cell_clients=4, seed=11)
        q = ShardPlan(n_clients=32, n_shards=1, cell_clients=4, seed=11)
        for cell in range(p.n_cells):
            assert p.cell_seed(cell) == q.cell_seed(cell)


def test_cell_and_shard_seed_streams_are_disjoint():
    p = ShardPlan(n_clients=64, n_shards=8, cell_clients=8, seed=3)
    cell_seeds = {p.cell_seed(c) for c in range(p.n_cells)}
    shard_seeds = {p.shard_seed(s) for s in range(p.n_shards)}
    assert len(cell_seeds) == p.n_cells
    assert len(shard_seeds) == p.n_shards
    assert not cell_seeds & shard_seeds


def test_plan_validation():
    with pytest.raises(ValueError):
        ShardPlan(n_clients=0, n_shards=1)
    with pytest.raises(ValueError):
        ShardPlan(n_clients=8, n_shards=0)
    with pytest.raises(ValueError):
        ShardPlan(n_clients=8, n_shards=1, cell_clients=0)
    with pytest.raises(ValueError):
        ShardPlan(n_clients=8, n_shards=1, seed=-1)


# -- merge algebra (property-tested) ------------------------------------------


def _outcome(i: int) -> dict:
    return {"session_id": f"sess-{i}",
            "result": {"completed": bool(i % 2)}}


def _doc(indices: list[int]) -> dict:
    return {"outcomes": [_outcome(i) for i in indices]}


@st.composite
def _three_disjoint_docs(draw):
    indices = sorted(draw(st.sets(st.integers(1, 200), max_size=24)))
    labels = draw(st.lists(st.integers(0, 2), min_size=len(indices),
                           max_size=len(indices)))
    parts: list[list[int]] = [[], [], []]
    for idx, lab in zip(indices, labels):
        parts[lab].append(idx)
    return [_doc(part) for part in parts]


@settings(max_examples=60, deadline=None)
@given(_three_disjoint_docs())
def test_merge_identity(docs):
    a = docs[0]
    assert merge_population_docs(a, empty_population_doc()) == \
        merge_population_docs(empty_population_doc(), a)
    merged = merge_population_docs(a, empty_population_doc())
    assert [session_index(o) for o in merged["outcomes"]] == \
        sorted(session_index(o) for o in a["outcomes"])


@settings(max_examples=60, deadline=None)
@given(_three_disjoint_docs())
def test_merge_associative_and_commutative(docs):
    a, b, c = docs
    left = merge_population_docs(merge_population_docs(a, b), c)
    right = merge_population_docs(a, merge_population_docs(b, c))
    assert left == right
    assert merge_population_docs(a, b) == merge_population_docs(b, a)


def test_merge_rejects_duplicate_sessions():
    a = _doc([1, 2])
    b = _doc([2, 3])
    with pytest.raises(ValueError, match="duplicate session"):
        merge_population_docs(a, b)


def test_merge_rejects_duplicate_cells():
    cell = {"cell": 0, "population": _doc([1])}
    with pytest.raises(ValueError, match="duplicate cell"):
        merge_cell_docs([cell, dict(cell)])


def test_session_index_rejects_malformed_ids():
    with pytest.raises(ValueError):
        session_index({"session_id": "nope"})


# -- permutation invariance over real cell documents --------------------------


def test_real_cell_merge_is_order_independent():
    """Any permutation of a 3-way split merges to the same digest —
    including the float-summing service/timeseries telemetry."""
    plan = ShardPlan(n_clients=6, n_shards=1, cell_clients=2, seed=7)
    workload = shard_workload(duration_s=1.5, stagger_s=0.25,
                              with_images=False)
    docs = [run_cell(workload, cell, *plan.cell_bounds(cell),
                     plan.cell_seed(cell))
            for cell in range(plan.n_cells)]
    reference = population_digest(merge_cell_docs(list(docs)))
    for order in ((2, 0, 1), (1, 2, 0), (2, 1, 0)):
        shuffled = [docs[i] for i in order]
        assert population_digest(merge_cell_docs(shuffled)) == reference
    # splitting the fold differently must not matter either: the
    # canonical sort inside merge_cell_docs is what the supervisor
    # relies on when shards deliver cells in arbitrary order
    assert len({d["digest"] for d in docs}) == len(docs)


# -- a cell carries no recorder ------------------------------------------------


def test_cell_scores_its_sessions_without_a_tracer():
    """QoE per outcome under the global session id, the kernel's own
    event count, and not one call into the tracer module."""
    import sys

    import repro.obs.tracer

    tracer_file = repro.obs.tracer.__file__
    tracer_calls = 0

    def count(frame, event, arg):
        nonlocal tracer_calls
        if event == "call" and frame.f_code.co_filename == tracer_file:
            tracer_calls += 1

    workload = shard_workload(duration_s=1.5, stagger_s=0.25,
                              with_images=False)
    sys.setprofile(count)
    try:
        doc = run_cell(workload, 3, 12, 16, seed=7)
    finally:
        sys.setprofile(None)
    assert tracer_calls == 0
    assert doc["events"] > 0
    outcomes = doc["population"]["outcomes"]
    assert [o["session_id"] for o in outcomes] == \
        ["sess-13", "sess-14", "sess-15", "sess-16"]
    for outcome in outcomes:
        qoe = outcome["result"]["qoe"]
        assert qoe["session"] == outcome["session_id"]
        assert qoe["frames_played"] > 0 and qoe["score"] > 0
    assert population_qoe(o["result"]["qoe"] for o in outcomes)[
        "sessions"] == 4
