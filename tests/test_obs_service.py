"""Service telemetry: Histogram.merge, the service document, determinism."""

import copy
import dataclasses
import itertools
import json

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import ServiceEngine
from repro.core.experiments import av_markup
from repro.faults.digest import canonical_json
from repro.obs import metrics
from repro.obs.bench import run_scenario
from repro.obs.metrics import Histogram, log_buckets
from repro.obs.service_metrics import merge_service_docs
from repro.obs.timeseries import merge_series_docs
from repro.shard.bench import run_sharded, shard_workload


# -- Histogram.merge (property-style) -----------------------------------------

SAMPLE_SETS = (
    [0.001, 0.5, 2.0, 40.0],
    [0.01, 0.01, 0.01],
    [],
    [100.0, 0.0005],
)


def _hist(values, bounds=None):
    h = Histogram(bounds=bounds) if bounds else Histogram()
    for v in values:
        h.observe(v)
    return h


@pytest.mark.parametrize("a,b", list(itertools.combinations(SAMPLE_SETS, 2)))
def test_histogram_merge_equals_joint_observation(a, b):
    merged = _hist(a).merge(_hist(b))
    joint = _hist(list(a) + list(b))
    assert merged.bucket_counts == joint.bucket_counts
    assert merged.count == joint.count
    assert merged.total == pytest.approx(joint.total)
    # sum/mean may differ in the last ulp (addition order), the
    # bucket-derived stats are exact
    ms, js = merged.summary(), joint.summary()
    assert ms.pop("sum") == pytest.approx(js.pop("sum"))
    assert ms.pop("mean") == pytest.approx(js.pop("mean"))
    assert ms == js


@pytest.mark.parametrize("a,b", list(itertools.combinations(SAMPLE_SETS, 2)))
def test_histogram_merge_commutes(a, b):
    ab = _hist(a).merge(_hist(b))
    ba = _hist(b).merge(_hist(a))
    assert ab.summary() == ba.summary()
    assert ab.bucket_counts == ba.bucket_counts


def test_histogram_merge_associative():
    a, b, c = (_hist(s) for s in SAMPLE_SETS[:3])
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.bucket_counts == right.bucket_counts
    assert left.summary() == right.summary()


def test_histogram_merge_rejects_misaligned_buckets():
    a = _hist([1.0], bounds=log_buckets(1e-3, 10.0))
    b = _hist([1.0], bounds=log_buckets(1e-3, 100.0))
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_merge_does_not_mutate_operands():
    a, b = _hist([1.0, 2.0]), _hist([3.0])
    before = (list(a.bucket_counts), a.count, list(b.bucket_counts))
    a.merge(b)
    assert (list(a.bucket_counts), a.count,
            list(b.bucket_counts)) == before


def test_histogram_merge_with_empty_is_identity():
    a, empty = _hist([0.5, 2.0, 40.0]), _hist([])
    for merged in (a.merge(empty), empty.merge(a)):
        assert merged.bucket_counts == a.bucket_counts
        assert merged.summary() == a.summary()
        assert merged.percentiles() == a.percentiles()


# -- Histogram.quantile / percentiles edge cases ------------------------------

def test_quantile_of_empty_histogram_is_zero():
    h = Histogram()
    assert h.quantile(0.5) == 0.0
    assert h.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_quantile_rejects_out_of_range():
    h = _hist([1.0])
    with pytest.raises(ValueError):
        h.quantile(-0.1)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_quantile_single_observation_is_exact_everywhere():
    h = _hist([0.7])
    for q in (0.0, 0.25, 0.5, 0.95, 1.0):
        assert h.quantile(q) == pytest.approx(0.7)


def test_quantile_single_bucket_clamps_to_observed_range():
    # Many observations landing in one bucket: interpolation stays
    # inside [min, max], exact at the extremes.
    h = _hist([0.42, 0.45, 0.48])
    assert h.quantile(0.0) >= h.min
    assert h.quantile(1.0) == pytest.approx(h.max)
    for q in (0.1, 0.5, 0.9):
        assert h.min <= h.quantile(q) <= h.max


def test_quantile_overflow_bucket_reports_observed_max():
    bounds = (1.0, float("inf"))
    h = _hist([50.0, 900.0], bounds=bounds)
    assert h.quantile(0.99) == pytest.approx(900.0)


def test_percentiles_custom_quantiles_keys(monkeypatch):
    monkeypatch.setattr(metrics, "QUANTILES", (0.5, 0.9))
    h = _hist([1.0, 2.0, 3.0])
    out = h.percentiles()
    assert set(out) == {"p50", "p90"}


# -- merge_service_docs: merge laws -------------------------------------------

def _cell(seed):
    """One chaos-crash run's (service, timeseries) documents."""
    artifact = run_scenario("crash", smoke=True, seed=seed).artifact
    return artifact["service"], artifact["timeseries"]


def _merge(*cells):
    """Merge cells as ``merge_cell_docs`` does: the series first, then
    the service documents against it. Returns a (service, series) pair,
    so a merge can be merged again."""
    series = merge_series_docs([ts for _, ts in cells])
    return merge_service_docs([svc for svc, _ in cells], series), series


def test_service_report_merge_commutes():
    a, b = _cell(23), _cell(31)
    assert canonical_json(_merge(a, b)) == canonical_json(_merge(b, a))


def test_service_report_merge_associative():
    a, b, c = _cell(23), _cell(31), _cell(47)
    left = _merge(_merge(a, b), c)
    right = _merge(a, _merge(b, c))
    assert canonical_json(left) == canonical_json(right)


def test_service_report_three_way_merge_is_order_free():
    # Every shard arrival order yields the identical fleet rollup.
    cells = (_cell(23), _cell(31), _cell(47))
    docs = set()
    for perm in itertools.permutations(cells):
        docs.add(canonical_json(_merge(_merge(perm[0], perm[1]), perm[2])))
    assert len(docs) == 1


def test_merge_adds_counters_and_reads_loads_off_the_series():
    """Two identical cells: every counter doubles, and so does each
    server's peak, because the cells stream side by side; the merged
    document still has one sample per tick of the merged series."""
    cell = _cell(23)
    service = cell[0]
    merged, series = _merge(cell, cell)
    assert merged["samples"] == series["ticks"] == service["samples"]
    assert merged["recovery"]["detections"] == \
        2 * service["recovery"]["detections"]
    assert merged["admission"]["requests"] == \
        2 * service["admission"]["requests"]
    assert merged["egress"]["total_bytes"] == \
        2 * service["egress"]["total_bytes"]
    assert merged["recovery"]["time_to_recover_s"]["count"] == \
        2 * service["recovery"]["time_to_recover_s"]["count"]
    for name, load in merged["servers"].items():
        one = service["servers"][name]
        assert load["samples"] == one["samples"] == series["ticks"]
        assert load["sum_streams"] == 2 * one["sum_streams"]
        assert load["peak_streams"] == 2 * one["peak_streams"]
    assert any(load["peak_streams"] for load in service["servers"].values())


def test_region_conflict_across_cells_rejected():
    service, series = _cell(23)
    both = merge_series_docs([series, series])
    server = copy.deepcopy(service)
    for load in server["servers"].values():
        load["region"] = "east"
    host = copy.deepcopy(service)
    for entry in host["egress"]["by_host"].values():
        entry["region"] = "east"
    for moved in (server, host):
        with pytest.raises(ValueError, match="changed region"):
            merge_service_docs([service, moved], both)


def test_merging_one_document_against_its_own_series_returns_it():
    service, series = _cell(23)
    merged = merge_service_docs([service], merge_series_docs([series]))
    assert json.dumps(merged) == json.dumps(service)


# -- the service document: acceptance -----------------------------------------

def test_same_seed_byte_identical_service_report():
    a = run_scenario("crash", smoke=True).artifact["service"]
    b = run_scenario("crash", smoke=True).artifact["service"]
    assert canonical_json(a) == canonical_json(b)


def test_empty_plan_chaos_has_zero_fault_rollups():
    service = run_scenario("none", smoke=True).artifact["service"]
    recovery = service["recovery"]
    assert recovery["detections"] == 0
    assert recovery["streams_failed_over"] == 0
    assert recovery["streams_lost"] == 0
    assert recovery["sessions_saved"] == 0
    assert recovery["time_to_recover_s"]["count"] == 0
    assert service["admission"]["rejected"] == 0
    assert service["admission"]["blocking_prob"] == 0.0


def test_crash_chaos_reports_recovery_rollups():
    service = run_scenario("crash", smoke=True).artifact["service"]
    recovery = service["recovery"]
    assert recovery["detections"] >= 1
    assert recovery["streams_failed_over"] > 0
    assert recovery["time_to_recover_s"]["count"] == \
        recovery["streams_failed_over"]
    assert recovery["time_to_recover_s"]["p95"] >= \
        recovery["time_to_detect_s"]["p50"] > 0


# -- the service document agrees with its series ------------------------------

def _scenario(name):
    artifact = run_scenario(name, smoke=True).artifact
    return artifact["service"], artifact["timeseries"]


def _sharded(n_clients, n_shards, **config):
    workload = shard_workload(duration_s=1.5, stagger_s=0.25)
    workload = dataclasses.replace(workload,
                                   config={**workload.config, **config})
    merged = run_sharded(n_clients, n_shards, seed=7, cell_clients=4,
                         workload=workload).merged
    return merged["service"], merged["timeseries"]


AGREEMENT_CASES = {
    "chaos_crash": lambda: _scenario("crash"),
    "chaos_replica_crash": lambda: _scenario("replica-crash"),
    "bench_cdn_hot": lambda: _scenario("cdn_hot"),
    # the pinned K=2 run of tests/test_datapath_equivalence.py
    "shard_k2": lambda: _sharded(8, 2),
    # cells too small for their viewers: some are refused
    "shard_k3_blocking": lambda: _sharded(
        20, 3, admission_capacity_bps=6e6),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_the_service_document_agrees_with_its_series(case):
    """Every number the service document shares with its series is the
    series': one sample per tick, each server's load the sum / max of
    its ``streams.<ms>`` column, admissions and refusals the sums of
    the ``admit_*`` columns, each host's bytes the sum of its
    ``egress_bytes.<host>`` column — merged sharded documents included.

    Loads are read off the series by construction. Egress and admission
    are the engine's own counters; they equal the column sums because
    ``run_workload`` runs one simulated second past its last session
    (the drain), so nothing is sent or admitted after the sampler's
    last tick.
    """
    service, series = AGREEMENT_CASES[case]()
    columns = series["columns"]

    def column_sum(name):
        return sum(columns[name]["values"])

    assert service["samples"] == series["ticks"]
    assert service["servers"]
    for name, load in service["servers"].items():
        streams = columns[f"streams.{name}"]["values"]
        assert load["samples"] == len(streams) == series["ticks"]
        assert load["sum_streams"] == sum(streams)
        assert load["peak_streams"] == max(streams)
    admission = service["admission"]
    for name, stats in admission["by_server"].items():
        assert stats["admitted"] == column_sum(f"admit_accepted.{name}")
        assert stats["rejected"] == column_sum(f"admit_rejected.{name}")
    assert admission["admitted"] == sum(
        column_sum(n) for n in columns if n.startswith("admit_accepted."))
    assert admission["rejected"] == sum(
        column_sum(n) for n in columns if n.startswith("admit_rejected."))
    assert admission["requests"] == \
        admission["admitted"] + admission["rejected"]
    for host, entry in service["egress"]["by_host"].items():
        assert entry["bytes"] == column_sum(f"egress_bytes.{host}")
    if case == "shard_k3_blocking":
        assert admission["rejected"] > 0


# -- live monitor -------------------------------------------------------------

def _engine_with_monitor(**config):
    eng = ServiceEngine(EngineConfig(seed=5, **config))
    eng.add_server("srv1",
                   documents={"doc": (av_markup(2.0, False), "t")})
    eng.attach_service_monitor()
    return eng


def test_monitor_samples_concurrent_streams():
    eng = _engine_with_monitor()
    pop = eng.orchestrator.run_population(2, "srv1", "doc", stagger_s=0.3)
    service = pop.service
    assert service["samples"] > 0
    loads = service["servers"]
    assert loads["audsrv"]["peak_streams"] >= 1
    assert loads["vidsrv"]["peak_streams"] >= 1
    assert service["regions"]["origin"]["peak_streams"] >= 2
    assert service["egress"]["origin_bytes"] > 0
    assert service["egress"]["origin_egress_bps"] > 0
    assert service["admission"]["requests"] == 2
    assert service["admission"]["blocking_prob"] == 0.0


def test_monitor_sees_admission_blocking():
    # capacity fits one basic contract; the second viewer is refused
    eng = _engine_with_monitor(admission_capacity_bps=2e6)
    pop = eng.orchestrator.run_population(3, "srv1", "doc", stagger_s=0.2)
    service = pop.service
    assert service["admission"]["rejected"] > 0
    assert service["admission"]["blocking_prob"] > 0.0
    assert len(pop.completed()) < len(pop)


def test_monitor_absent_keeps_to_dict_shape():
    eng = ServiceEngine(EngineConfig(seed=5))
    eng.add_server("srv1",
                   documents={"doc": (av_markup(1.0, False), "t")})
    pop = eng.orchestrator.run_population(1, "srv1", "doc")
    assert pop.service == {}
    assert "service" not in pop.to_dict()
