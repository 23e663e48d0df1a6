"""Trend analytics: history loading, MAD bands, CLI gate, dashboard.

The comparator's baseline-as-one-point-history cases sit with the bench
harness tests in ``test_obs_lifecycle_qoe.py``.
"""

import json
import os

from repro.__main__ import main
from repro.obs.trend import (
    TrendMetric,
    analyze_group,
    group_history,
    load_history,
    render_markdown_report,
    sparkline,
)

#: the one checked-in reference store
STORE_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks", "baseline")


def _bench_doc(**over):
    doc = {
        "schema": "repro.bench",
        "scenario": "population_clean",
        "smoke": False,
        "seed": 11,
        "sessions": 4,
        "completed": 4,
        "events": 1000,
        "origin_egress_bytes": 1000,
        "qoe": {"score": {"p50": 95.0, "p95": 96.0}},
    }
    doc.update(over)
    return doc


def _write_series(dirpath, docs):
    os.makedirs(dirpath, exist_ok=True)
    for i, doc in enumerate(docs):
        path = os.path.join(dirpath, f"BENCH_x.{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return str(dirpath)


# -- loading and grouping -----------------------------------------------------

def test_load_history_sorts_and_skips_non_artifacts(tmp_path):
    _write_series(tmp_path, [_bench_doc(events=1), _bench_doc(events=2)])
    (tmp_path / "notes.json").write_text(json.dumps({"hello": 1}))
    (tmp_path / "README.md").write_text("not json")
    history = load_history([str(tmp_path)])
    assert [doc["events"] for doc in history] == [1, 2]
    assert all("_path" in doc for doc in history)


def test_group_history_splits_scenario_and_scale():
    history = [
        _bench_doc(), _bench_doc(smoke=True),
        {"schema": "repro.chaos", "scenario": "crash", "smoke": True},
    ]
    groups = group_history(history)
    assert set(groups) == {("population_clean", False),
                           ("population_clean", True),
                           ("crash", True)}


# -- verdicts -----------------------------------------------------------------

def test_analyze_group_flags_each_direction():
    metrics = (TrendMetric("qoe_p50", direction="higher"),
               TrendMetric("events", direction="stable"))
    docs = [_bench_doc() for _ in range(4)]
    docs.append(_bench_doc(qoe={"score": {"p50": 40.0}}, events=2000))
    rows = {r.metric: r for r in analyze_group(docs, metrics=metrics)}
    assert rows["qoe_p50"].verdict == "regressed"
    assert rows["events"].verdict == "regressed"
    # The same drift in the harmless direction is fine for "higher".
    docs[-1] = _bench_doc(qoe={"score": {"p50": 99.0}})
    rows = {r.metric: r for r in analyze_group(docs, metrics=metrics)}
    assert rows["qoe_p50"].verdict == "ok"


def test_identical_history_tolerates_small_drift():
    # MAD is 0 on an all-identical history; the relative floor keeps
    # sub-threshold drift from flagging.
    docs = [_bench_doc() for _ in range(5)]
    docs.append(_bench_doc(origin_egress_bytes=1050))
    rows = {r.metric: r for r in analyze_group(docs)}
    assert rows["origin_egress_bytes"].verdict == "ok"


def test_single_point_is_insufficient():
    rows = analyze_group([_bench_doc()])
    assert rows and all(r.verdict == "insufficient" for r in rows)


def test_absent_metrics_are_skipped():
    docs = [{"schema": "repro.bench", "scenario": "x", "events": 1,
             "egress_reduction": 2.0},
            {"schema": "repro.bench", "scenario": "x", "events": 1,
             "egress_reduction": 2.0}]
    names = {r.metric for r in analyze_group(docs)}
    assert names == {"egress_reduction"}  # and ``events`` is not gated


# -- sparkline ----------------------------------------------------------------

def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"
    line = sparkline([0.0, 1.0, 2.0, 3.0])
    assert len(line) == 4 and line[0] == "▁" and line[-1] == "█"
    assert len(sparkline(list(range(100)), width=24)) == 24


# -- the CLI gate -------------------------------------------------------------

def test_trend_cli_exits_one_on_synthetic_regression(tmp_path, capsys):
    docs = [_bench_doc() for _ in range(4)]
    docs.append(_bench_doc(completed=1, qoe={"score": {"p50": 40.0}}))
    fixture = _write_series(tmp_path / "hist", docs)
    assert main(["trend", "--history", fixture, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["regressions"] >= 1


def test_trend_cli_passes_on_checked_in_history(capsys):
    assert main(["trend", "--history", STORE_DIR]) == 0
    assert "population_clean" in capsys.readouterr().out


def test_trend_cli_appends_artifact_as_newest_point(tmp_path, capsys):
    fixture = _write_series(tmp_path / "hist",
                            [_bench_doc() for _ in range(4)])
    bad = tmp_path / "BENCH_fresh.json"
    bad.write_text(json.dumps(_bench_doc(completed=0)))
    assert main(["trend", "--history", fixture,
                 "--artifact", str(bad)]) == 1
    assert "regression" in capsys.readouterr().out


def test_trend_cli_errors_without_history(tmp_path, capsys):
    assert main(["trend", "--history", str(tmp_path)]) == 2
    capsys.readouterr()


# -- the markdown dashboard ---------------------------------------------------

def test_report_cli_renders_dashboard(tmp_path, capsys):
    src = sorted(f for f in os.listdir(STORE_DIR)
                 if "population_clean" in f)[-1]
    out = tmp_path / "report.md"
    assert main(["report",
                 "--artifact", os.path.join(STORE_DIR, src),
                 "--history", STORE_DIR,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    md = out.read_text()
    assert md.startswith("# Run report — population_clean")
    for section in ("## QoE", "## Service", "## Time series",
                    "## SLO", "## Trend"):
        assert section in md
    assert "link_utilization" in md


def test_render_markdown_skips_absent_sections():
    md = render_markdown_report({"schema": "repro.bench",
                                 "scenario": "bare"})
    assert "## QoE" not in md
    assert "## Time series" not in md
    assert md.startswith("# Run report — bare")
