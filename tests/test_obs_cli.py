"""The ``python -m repro trace`` subcommand and the ``--json`` reporter."""

from __future__ import annotations

import io
import json

import pytest

from repro.__main__ import main
from repro.analysis import Reporter
from repro.obs import read_jsonl


def test_reporter_text_mode_streams_tables():
    out = io.StringIO()
    rep = Reporter(json_mode=False, stream=out)
    rep.table("T", ["a", "b"], [[1, 2]])
    rep.value("k", 3)
    rep.close()
    text = out.getvalue()
    assert "T" in text and "a" in text and "k: 3" in text


def test_reporter_json_mode_single_document():
    out = io.StringIO()
    rep = Reporter(json_mode=True, stream=out)
    rep.table("T", ["a"], [[1]])
    rep.text("note", "body")
    rep.value("k", 3)
    rep.close()
    doc = json.loads(out.getvalue())
    assert doc["values"] == {"k": 3}
    assert doc["sections"][0] == {"title": "T", "headers": ["a"],
                                  "rows": [[1]]}
    assert doc["sections"][1] == {"title": "note", "text": "body"}


def test_cli_list_json(capsys):
    assert main(["list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    titles = [s["title"] for s in doc["sections"]]
    assert titles == ["experiments", "figures"]


def test_cli_trace_record_then_summarize(tmp_path, capsys):
    jl = tmp_path / "t.jsonl"
    cj = tmp_path / "t.json"
    assert main(["trace", "--record", str(jl), "--chrome", str(cj),
                 "--clients", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["sessions_completed"] == 2
    assert doc["values"]["jsonl_events"] > 0
    events = read_jsonl(jl)
    assert len(events) == doc["values"]["jsonl_events"]
    chrome = json.loads(cj.read_text())
    assert len(chrome["traceEvents"]) == doc["values"]["chrome_records"]

    assert main(["trace", str(jl)]) == 0
    text = capsys.readouterr().out
    assert "Top event kinds" in text
    assert "Session timelines" in text
    assert "sess-1" in text


def test_cli_trace_usage_without_args(capsys):
    assert main(["trace"]) == 2
    assert "usage" in capsys.readouterr().out


def test_cli_run_figure_still_works(capsys):
    assert main(["run", "table1"]) == 0
    assert "keywords" in capsys.readouterr().out


_TEXT, _INT, _NUMBER = "a value", "an integer", "a number"
#: every value-taking flag of every subcommand, with what it needs
VALUE_FLAGS = [
    (cmd, flag, kind)
    for cmd, flags in {
        "trace": {"--record": _TEXT, "--chrome": _TEXT, "--top": _INT,
                  "--clients": _INT},
        "bench": {"--out": _TEXT, "--baseline": _TEXT,
                  "--threshold": _NUMBER, "--perf-threshold": _NUMBER,
                  "--scenario": _TEXT, "--clients": _INT, "--shards": _INT,
                  "--cell": _INT, "--seed": _INT, "--duration": _NUMBER,
                  "--topology": _TEXT},
        "profile": {"--scenario": _TEXT, "--out": _TEXT, "--top": _INT},
        "slo": {"--artifact": _TEXT, "--scenario": _TEXT, "--chaos": _TEXT,
                "--spec": _TEXT, "--spec-file": _TEXT, "--rule": _TEXT,
                "--flight-dump": _TEXT},
        "chaos": {"--scenario": _TEXT, "--seed": _INT, "--clients": _INT,
                  "--min-delivered": _NUMBER, "--min-completed": _NUMBER,
                  "--out": _TEXT, "--flight-dump": _TEXT,
                  "--flight-window": _NUMBER},
        "trend": {"--history": _TEXT, "--artifact": _TEXT,
                  "--threshold": _NUMBER, "--perf-threshold": _NUMBER},
        "report": {"--artifact": _TEXT, "--out": _TEXT, "--history": _TEXT},
        "lint": {"--capacity-mbps": _NUMBER, "--examples-dir": _TEXT,
                 "--format": _TEXT, "--baseline": _TEXT,
                 "--write-baseline": _TEXT},
    }.items()
    for flag, kind in flags.items()
]


@pytest.mark.parametrize("cmd, flag, kind", VALUE_FLAGS)
def test_cli_flag_with_bad_value_is_a_usage_error(cmd, flag, kind, capsys):
    """No traceback: one line on stderr and exit status 2."""
    argvs = [[cmd, flag]]
    if kind != _TEXT:
        argvs.append([cmd, flag, "x"])
    for argv in argvs:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"repro: {flag} needs {kind}\n"
