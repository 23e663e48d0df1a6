"""One bench path: ``repro bench --shards K`` runs the selected scenario
rows sharded, through the artifact builder and gate every run takes.

A sharded run of a row writes ``BENCH_<row>.json``, held to that row's
shipped spec; its digest does not depend on K, and one cell is the
monolithic run at the cell's seed. A reference gates only the plain run
it was recorded from, here and in ``repro report``.
"""

from __future__ import annotations

import json

import pytest

import repro.shard.worker as worker_module
from repro.__main__ import main
from repro.obs.bench import run_scenario
from repro.obs.slo import DEFAULT_STORE, load_store, reference_for
from repro.shard.plan import ShardPlan

#: ``bench --clients 16 --shards K --cell 4`` before the sharded point
#: became the population_clean row at full size, for every K
POINT_DIGEST = \
    "a82a899b56e4586cf7b9c2e1cf53ea8feb72dafcc492e644a14e60d9efec98a2"


def _bench(tmp_path, capsys, *argv):
    """Exit code and the one artifact of a bench run."""
    rc = main(["bench", *argv, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    (path,) = tmp_path.glob("BENCH_*.json")
    return rc, json.loads(path.read_text()), out


@pytest.mark.parametrize("k", [1, 4])
def test_the_sharded_point_is_population_clean_sharded(k, tmp_path,
                                                       capsys):
    rc, artifact, _ = _bench(tmp_path, capsys, "--scenario",
                             "population_clean", "--clients", "16",
                             "--shards", str(k), "--cell", "4")
    assert rc == 0
    assert artifact["name"] == "population_clean"
    assert artifact["digest"] == POINT_DIGEST
    assert artifact["shards"] == k and artifact["completeness"] == 1.0
    # the merged loads are the merged series': one sample per tick
    assert artifact["service"]["samples"] == artifact["timeseries"]["ticks"]


def test_a_sharded_chaos_row_holds_its_spec_and_is_k_invariant(tmp_path,
                                                               capsys):
    argv = ["--smoke", "--scenario", "crash", "--clients", "8",
            "--cell", "4"]
    rc, k2, out = _bench(tmp_path / "k2", capsys, *argv, "--shards", "2",
                         "--check-determinism")
    assert rc == 0
    assert "delivered_ratio >= 0.8" in out
    assert "replay digest == digest" in out
    # the crash smoke reference is a 4-viewer run: it gates no other
    assert "baseline:crash: missing (not compared)" in out
    assert k2["delivered"] == k2["sessions"] == 8
    assert k2["service"]["recovery"]["streams_failed_over"] > 0
    _, k1, _ = _bench(tmp_path / "k1", capsys, *argv, "--shards", "1")
    assert k1["digest"] == k2["digest"]


def test_one_cell_is_the_monolithic_run_through_the_cli(tmp_path, capsys):
    seed = 5
    rc, artifact, _ = _bench(tmp_path, capsys, "--smoke", "--scenario",
                             "crash", "--shards", "1", "--seed", str(seed))
    assert rc == 0
    assert artifact["cells_total"] == 1
    cell_seed = ShardPlan(n_clients=4, n_shards=1, cell_clients=8,
                          seed=seed).cell_seed(0)
    mono = run_scenario("crash", smoke=True, seed=cell_seed)
    assert artifact["digest"] == mono.digest
    assert artifact["events"] == mono.artifact["events"]


def test_a_lost_cell_fails_the_gate_unless_tolerated(tmp_path, capsys,
                                                     monkeypatch):
    """A shard that exhausts its retries leaves a partial result: it is
    written and judged, and its completeness fails the gate."""
    run_cell = worker_module.run_cell

    def lose_cell_one(workload, cell, lo, hi, seed):
        if cell == 1:
            raise RuntimeError("cell 1 is lost")
        return run_cell(workload, cell, lo, hi, seed)

    monkeypatch.setattr(worker_module, "run_cell", lose_cell_one)
    argv = ["--smoke", "--scenario", "population_clean", "--clients", "4",
            "--cell", "2", "--shards", "2"]
    rc, artifact, out = _bench(tmp_path / "strict", capsys, *argv)
    assert rc == 1
    assert artifact["completeness"] == 0.5
    assert artifact["missing_cells"] == [1]
    assert "completeness >= 1" in out and "degraded" in out
    rc, _, out = _bench(tmp_path / "tolerant", capsys, *argv,
                        "--tolerate-shard-failures")
    assert rc == 0
    assert "completeness >= 1" not in out


def test_a_reference_gates_only_the_plain_run():
    store = load_store(DEFAULT_STORE)
    plain = run_scenario("crash", smoke=True).artifact
    assert reference_for(store, plain) is store[("crash", True)]
    for other in ({"clients": 8}, {"seed": 5}, {"shards": 1}):
        assert reference_for(store, {**plain, **other}) is None


def test_report_reads_a_sharded_run_without_its_rows_reference(tmp_path,
                                                               capsys):
    """Named ``population_clean``, a sharded run still meets no 2-viewer
    smoke reference in ``repro report``."""
    _, artifact, _ = _bench(tmp_path, capsys, "--smoke", "--scenario",
                            "population_clean", "--clients", "4",
                            "--shards", "1")
    path = tmp_path / "BENCH_population_clean.json"
    page = tmp_path / "report.md"
    assert main(["report", "--artifact", str(path), "--out",
                 str(page)]) == 0
    assert artifact["clients"] == 4
    text = page.read_text()
    assert "## SLO" in text and "Trend" not in text
