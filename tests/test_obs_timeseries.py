"""Time-series telemetry: columnar algebra and the DES-clock sampler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    TimeSeries,
    TimeSeriesSampler,
    merge_series_docs,
)
from repro.obs.tracer import RecordingTracer
from tests.helpers import select


# -- building -----------------------------------------------------------------

def test_column_rejects_unknown_ops():
    with pytest.raises(ValueError):
        TimeSeries().ensure_column("x", merge="mean")


def test_tick_requires_declared_columns():
    ts = TimeSeries()
    with pytest.raises(KeyError):
        ts.tick({"mystery": 1.0})


def test_late_column_zero_pads_back_to_tick_zero():
    ts = TimeSeries()
    ts.ensure_column("a", merge="sum")
    ts.tick({"a": 1.0})
    ts.tick({"a": 2.0})
    # An edge replica spinning up at tick 2 must not shift history.
    ts.ensure_column("b", merge="sum")
    ts.tick({"a": 3.0, "b": 5.0})
    assert ts.values("a") == [1.0, 2.0, 3.0]
    assert ts.values("b") == [0.0, 0.0, 5.0]
    # Absent columns in a row record 0.0, not a gap.
    ts.tick({"b": 7.0})
    assert ts.values("a") == [1.0, 2.0, 3.0, 0.0]
    assert ts.values("b") == [0.0, 0.0, 5.0, 7.0]
    assert ts.ticks == 4


def test_roundtrip_through_dict():
    ts = TimeSeries()
    ts.interval_s = 0.5
    ts.ensure_column("a", merge="sum")
    ts.ensure_column("b", merge="max")
    ts.tick({"a": 1.0, "b": 2.5})
    ts.tick({"a": 3.0, "b": 0.5})
    doc = ts.to_dict()
    assert doc["schema"] == TIMESERIES_SCHEMA
    assert doc["version"] == 1
    assert sorted(doc["columns"]["a"]) == ["merge", "values"]
    # merging one document returns an equal one, never the same lists
    back = merge_series_docs([doc])
    assert back == doc
    assert back["columns"]["a"]["values"] is not doc["columns"]["a"]["values"]
    # v1 documents written while columns carried a time-coarsening op
    # still merge; the key is dropped on the way through
    for column in doc["columns"].values():
        column["resample"] = "max"
    assert merge_series_docs([doc]) == ts.to_dict()


# -- merge algebra (property-style) -------------------------------------------

# Integer-valued floats keep the sum op bit-exact (float addition is
# only approximately associative on arbitrary reals; sampler columns
# are counts/bytes, so this is the honest domain).
_VALUES = st.lists(st.integers(min_value=0, max_value=10**9)
                   .map(float), max_size=12)


def _series(sum_vals, max_vals):
    ts = TimeSeries()
    ts.ensure_column("delta", merge="sum")
    ts.ensure_column("gauge", merge="max")
    for i in range(max(len(sum_vals), len(max_vals))):
        ts.tick({
            "delta": sum_vals[i] if i < len(sum_vals) else 0.0,
            "gauge": max_vals[i] if i < len(max_vals) else 0.0,
        })
    return ts.to_dict()


def _merge(*docs):
    return merge_series_docs(docs)


@settings(max_examples=60, deadline=None)
@given(_VALUES, _VALUES, _VALUES)
def test_merge_is_associative_and_commutative(va, vb, vc):
    a, b, c = _series(va, va), _series(vb, vb), _series(vc, vc)
    assert _merge(a, b) == _merge(b, a)
    assert _merge(_merge(a, b), c) == _merge(a, _merge(b, c))
    # Fold order doesn't matter either.
    assert _merge(a, b, c) == _merge(c, a, b)


@settings(max_examples=40, deadline=None)
@given(_VALUES)
def test_merge_with_empty_is_identity(vals):
    a = _series(vals, vals)
    empty = TimeSeries().to_dict()
    assert _merge(a, empty) == a
    assert _merge(empty, a) == a


def test_merge_guards_interval_and_op_conflicts():
    a, b = TimeSeries(), TimeSeries()
    b.interval_s = 0.5
    with pytest.raises(ValueError):
        _merge(a.to_dict(), b.to_dict())
    c = TimeSeries()
    c.ensure_column("x", merge="sum")
    d = TimeSeries()
    d.ensure_column("x", merge="max")
    with pytest.raises(ValueError):
        _merge(c.to_dict(), d.to_dict())
    with pytest.raises(ValueError):
        _merge()


# -- the sampler on a live engine ---------------------------------------------

def _clean_run(n_clients, seed=11):
    eng = ServiceEngine(EngineConfig(seed=seed))
    eng.add_server("srv1",
                   documents={"doc": (av_markup(2.0, True), "t")})
    eng.attach_timeseries()
    pop = eng.orchestrator.run_population(n_clients, "srv1", "doc",
                                          stagger_s=0.3)
    return eng, pop


def test_sampler_columns_on_population_run():
    eng, pop = _clean_run(2)
    series = eng.timeseries_sampler.series
    assert series.ticks > 0
    names = set(series.columns)
    assert "streams.audsrv" in names
    assert "streams.vidsrv" in names
    assert "link_utilization" in names
    assert "buffer_occupancy_s" in names
    assert "event_queue_depth" in names
    assert any(n.startswith("egress_bytes.") for n in names)
    assert "admit_accepted.srv1" in names
    assert max(series.values("streams.audsrv")) == 2.0
    assert sum(series.values("admit_accepted.srv1")) == 2.0
    assert 0.0 < max(series.values("link_utilization")) <= 1.0
    assert max(series.values("event_queue_depth")) > 0
    # The trajectory rides the artifact: attached to PopulationResult
    # and gated on truthiness in to_dict.
    assert pop.timeseries["schema"] == TIMESERIES_SCHEMA
    assert "timeseries" in pop.to_dict()


def test_sampler_is_deterministic_across_runs():
    eng_a, _ = _clean_run(2)
    eng_b, _ = _clean_run(2)
    assert eng_a.timeseries_sampler.series.to_dict() == \
        eng_b.timeseries_sampler.series.to_dict()


def test_attach_timeseries_is_idempotent():
    eng = ServiceEngine(EngineConfig(seed=3))
    s1 = eng.attach_timeseries()
    s2 = eng.attach_timeseries()
    assert s1 is s2


@pytest.mark.parametrize("calls", [
    ("attach_timeseries",),
    ("attach_service_monitor",),
    ("attach_service_monitor", "attach_timeseries"),
    ("attach_timeseries", "attach_service_monitor", "attach_timeseries"),
])
def test_one_sampler_process_however_telemetry_is_attached(calls):
    tracer = RecordingTracer()
    eng = ServiceEngine(EngineConfig(seed=3), tracer=tracer)
    samplers = {getattr(eng, call)() for call in calls}
    assert samplers == {eng.timeseries_sampler}
    spawned = [e.name for e in select(tracer, kind="process.spawn")]
    assert spawned == ["timeseries-sampler"]
    # The one sampler yields both documents.
    eng.add_server("srv1",
                   documents={"doc": (av_markup(1.0, False), "t")})
    pop = eng.orchestrator.run_population(1, "srv1", "doc")
    assert pop.service["schema"] == "repro.service"
    assert pop.timeseries["schema"] == TIMESERIES_SCHEMA
    assert pop.service["samples"] == pop.timeseries["ticks"] > 0
    assert pop.service["interval_s"] == pop.timeseries["interval_s"]


def test_idle_engine_reads_an_empty_event_queue():
    """The gauge counts the system's heap entries, not the watcher's."""
    eng = ServiceEngine(EngineConfig(seed=3))
    eng.attach_service_monitor()
    eng.attach_timeseries()
    eng.sim.run(until=2.0)
    depth = eng.timeseries_sampler.series.values("event_queue_depth")
    assert len(depth) >= 7
    assert set(depth) == {0.0}


def test_sharded_population_merges_to_whole():
    """Two identical half-population shards merge to the doubled fleet.

    Each shard is its own engine (same seed → identical trajectory);
    the merged series must show sum columns doubled and max columns
    unchanged — exactly what a sharded population runner relies on.
    ENGINE_LOCAL columns stay worst-of-shards by construction.
    """
    eng_a, _ = _clean_run(2)
    eng_b, _ = _clean_run(2)
    shard_a = eng_a.timeseries_sampler.series
    shard_b = eng_b.timeseries_sampler.series
    whole = _merge(shard_a.to_dict(), shard_b.to_dict())
    assert whole["ticks"] == shard_a.ticks
    local = set(TimeSeriesSampler.ENGINE_LOCAL) | {"link_utilization"}
    for name, col in whole["columns"].items():
        base = shard_a.values(name)
        if col["merge"] == "sum":
            assert col["values"] == pytest.approx([2 * v for v in base])
        else:
            assert name in local
            assert col["values"] == pytest.approx(base)


def test_column_partition_shards_merge_back_to_whole():
    """Per-server shards of one run merge back to the exact whole.

    ROADMAP sharding splits the fleet so each shard owns a disjoint
    subset of servers/links; a column absent on a shard contributes
    zeros on merge, so the reassembled series is bit-identical to
    the whole-population series of the digest-pinned scenario.
    """
    eng, _ = _clean_run(2)
    whole = eng.timeseries_sampler.series.to_dict()
    names = sorted(whole["columns"])

    def shard(owned):
        return {**whole, "columns": {n: whole["columns"][n] for n in owned}}

    half_a, half_b = shard(names[::2]), shard(names[1::2])
    assert _merge(half_a, half_b) == whole
    assert _merge(half_b, half_a) == whole

