"""The baseline gate and the markdown dashboard.

A reference artifact in ``benchmarks/baseline`` is a generated SLO spec
(``repro.obs.slo.baseline_rules``); its per-metric cases sit with the
bench harness tests in ``test_obs_lifecycle_qoe.py``.
"""

import json
import os
import shutil

import pytest

from repro.__main__ import main
from repro.ioutil import UsageError
from repro.obs.dashboard import render_markdown_report, sparkline
from repro.obs.bench import SCENARIOS
from repro.obs.slo import (
    TREND_METRICS,
    baseline_rules,
    evaluate,
    load_store,
    store_key,
)

#: the one checked-in reference store
STORE_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks", "baseline")



def _bench_doc(**over):
    doc = {
        "schema": "repro.bench",
        "scenario": "population_clean",
        "smoke": False,
        "sessions": 4,
        "completed": 4,
        "events": 1000,
        "origin_egress_bytes": 1000,
        "qoe": {"score": {"p50": 95.0, "p95": 96.0}},
    }
    doc.update(over)
    return doc


def _failed(reference, run):
    return {c.rule.metric for c in evaluate(baseline_rules(reference), run)
            if not c.ok}


# -- the store ----------------------------------------------------------------

def test_group_history_splits_scenario_and_scale(tmp_path):
    docs = {"BENCH_population_clean.json": _bench_doc(),
            "BENCH_population_clean.smoke.json": _bench_doc(smoke=True),
            "BENCH_crash.smoke.json": _bench_doc(scenario="crash",
                                                 smoke=True)}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    store = load_store(str(tmp_path))
    assert set(store) == {("population_clean", False),
                          ("population_clean", True),
                          ("crash", True)}
    assert all(store_key(doc) == key for key, doc in store.items())

def test_store_refuses_a_second_reference_for_one_key(tmp_path):
    doc = {"schema": "repro.bench", "scenario": "x", "smoke": True}
    for name in ("BENCH_x.smoke.json", "BENCH_x.copy.json"):
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "README.md").write_text("not json, not read")
    with pytest.raises(UsageError, match="BENCH_x.smoke.json"):
        load_store(str(tmp_path))
    os.remove(tmp_path / "BENCH_x.copy.json")
    assert list(load_store(str(tmp_path))) == [("x", True)]
    assert load_store(str(tmp_path / "absent")) == {}


def test_the_store_holds_every_scenario_at_both_scales():
    assert set(load_store(STORE_DIR)) == {
        (name, smoke) for name in SCENARIOS for smoke in (False, True)}


def test_every_trend_metric_gates_some_reference():
    """A TREND_METRICS entry no reference carries gates no run."""
    gated = {rule.metric for reference in load_store(STORE_DIR).values()
             for rule in baseline_rules(reference)}
    assert {metric for metric, _ in TREND_METRICS} <= gated


def test_absent_metrics_are_skipped():
    reference = {"schema": "repro.bench", "scenario": "x", "events": 1,
                 "egress_reduction": 2.0}
    rules = baseline_rules(reference)
    # and ``events`` is not gated
    assert [(r.metric, r.op, r.threshold) for r in rules] == \
        [("egress_reduction", ">=", 1.8)]


# -- verdicts -----------------------------------------------------------------

def test_analyze_group_flags_each_direction():
    reference = _bench_doc()
    ops = {(r.metric, r.op) for r in baseline_rules(reference)}
    # "higher" holds a floor, "stable" a floor and a ceiling
    assert ("qoe_p50", ">=") in ops and ("qoe_p50", "<=") not in ops
    assert {("origin_egress_bytes", ">="),
            ("origin_egress_bytes", "<=")} <= ops
    worse = _bench_doc(qoe={"score": {"p50": 40.0}}, origin_egress_bytes=2000)
    assert _failed(reference, worse) == {"qoe_p50", "origin_egress_bytes"}
    # the same drift in the harmless direction is fine for "higher"
    assert _failed(reference, _bench_doc(qoe={"score": {"p50": 99.0}})) \
        == set()


def test_identical_history_tolerates_small_drift():
    reference = _bench_doc()
    assert _failed(reference, _bench_doc()) == set()
    # a stable metric 5% off stays inside the 10% band
    assert _failed(reference, _bench_doc(origin_egress_bytes=1050)) == set()


# -- sparkline ----------------------------------------------------------------

def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"
    line = sparkline([0.0, 1.0, 2.0, 3.0])
    assert len(line) == 4 and line[0] == "▁" and line[-1] == "█"
    assert len(sparkline(list(range(100)))) == 24


# -- the bench gate on the command line ---------------------------------------

def _bench_argv(tmp_path, scenario="population_clean"):
    """A smoke bench of one scenario gated by a copy of the store."""
    store = tmp_path / "baseline"
    shutil.copytree(STORE_DIR, store)
    return store, ["bench", "--smoke", "--scenario", scenario,
                   "--out", str(tmp_path / "out"), "--baseline", str(store)]


def test_trend_cli_passes_on_checked_in_history(tmp_path, capsys):
    _store, argv = _bench_argv(tmp_path)
    assert main(argv) == 0
    assert "qoe_p50" in capsys.readouterr().out


def _regress_qoe(tmp_path, scenario):
    """The argv of a smoke bench of ``scenario`` against a copied
    reference raised so that the fresh run reads 15% below it on
    qoe_p50."""
    store, argv = _bench_argv(tmp_path, scenario)
    path = store / f"BENCH_{scenario}.smoke.json"
    reference = json.loads(path.read_text())
    reference["qoe"]["score"]["p50"] /= 0.85
    path.write_text(json.dumps(reference))
    return argv


def _failed_rules(capsys):
    doc = json.loads(capsys.readouterr().out)
    (gate,) = [s for s in doc["sections"] if s["title"].startswith("Gate")]
    assert doc["values"]["violations"] == sum(
        row[3] == "FAIL" for row in gate["rows"])
    return [row[1].split()[0] for row in gate["rows"] if row[3] == "FAIL"]


def test_trend_cli_exits_one_on_synthetic_regression(tmp_path, capsys):
    assert main(_regress_qoe(tmp_path, "population_clean") + ["--json"]) == 1
    assert _failed_rules(capsys) == ["qoe_p50"]


def test_a_fault_plan_run_has_the_same_regression_gate(tmp_path, capsys):
    """A chaos run once held only its delivery floor: a 30% QoE drop
    passed."""
    assert main(_regress_qoe(tmp_path, "crash") + ["--json"]) == 1
    assert _failed_rules(capsys) == ["qoe_p50"]


# -- the markdown dashboard ---------------------------------------------------

def test_report_cli_renders_dashboard(tmp_path, capsys):
    src = sorted(f for f in os.listdir(STORE_DIR)
                 if "population_clean" in f)[-1]
    out = tmp_path / "report.md"
    assert main(["report",
                 "--artifact", os.path.join(STORE_DIR, src),
                 "--baseline", STORE_DIR,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    md = out.read_text()
    assert md.startswith("# Run report — population_clean")
    for section in ("## QoE", "## Service", "## Time series",
                    "## SLO", "## Trend"):
        assert section in md
    assert "link_utilization" in md
    # the reference's generated rules, each holding
    trend = md.split("## Trend")[1]
    assert "| qoe_p50 >= " in trend and "REGRESSED" not in trend


def test_render_markdown_skips_absent_sections():
    md = render_markdown_report({"schema": "repro.bench",
                                 "scenario": "bare"})
    assert "## QoE" not in md
    assert "## Time series" not in md
    assert md.startswith("# Run report — bare")
