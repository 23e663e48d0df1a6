"""The ``python -m repro trace`` subcommand and the ``--json`` reporter."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import build_parser, main
from repro.analysis import Reporter
from repro.obs import read_jsonl
from tests.test_cli_table import subcommands


def test_reporter_text_mode_streams_tables(capsys):
    rep = Reporter(json_mode=False)
    rep.table("T", ["a", "b"], [[1, 2]])
    rep.value("k", 3)
    rep.close()
    text = capsys.readouterr().out
    assert "T" in text and "a" in text and "k: 3" in text


def test_reporter_json_mode_single_document(capsys):
    rep = Reporter(json_mode=True)
    rep.table("T", ["a"], [[1]])
    rep.text("note", "body")
    rep.value("k", 3)
    rep.close()
    doc = json.loads(capsys.readouterr().out)
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
                 "--json"]) == 0
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


def test_cli_trace_records_a_table_scenario(tmp_path, capsys):
    """``--record`` runs a row of the scenario table, fault plan and
    all, through the one runner."""
    jl = tmp_path / "crash.jsonl"
    assert main(["trace", "--record", str(jl), "--scenario", "crash",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["sessions_completed"] == 4
    assert any(e.kind == "fault.crash" for e in read_jsonl(jl))


def test_cli_trace_usage_without_args(capsys):
    assert main(["trace"]) == 2
    assert "usage" in capsys.readouterr().out


def test_cli_run_figure_still_works(capsys):
    assert main(["run", "table1"]) == 0
    assert "keywords" in capsys.readouterr().out


def _kind(convert) -> str:
    """What a flag's ``type=`` wants, found by trying it."""
    if convert in (None, str):
        return "a value"
    try:
        convert("1.5")
    except ValueError:
        return "an integer"
    return "a number"


def _value_flags():
    """(subcommand, flag, kind) of every value-taking flag, read off the
    parser itself so a new flag is covered without editing this test."""
    return [(cmd, action.option_strings[0], _kind(action.type))
            for cmd, parser in subcommands(build_parser()).items()
            for action in parser._actions
            if action.option_strings and action.nargs != 0]


@pytest.mark.parametrize("cmd, flag, kind", _value_flags())
def test_cli_flag_with_bad_value_is_a_usage_error(cmd, flag, kind, capsys):
    """No traceback: one line on stderr that names the flag, exit 2."""
    argvs = [[cmd, flag]]
    if kind != "a value":
        argvs.append([cmd, flag, "x"])
    for argv in argvs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {cmd}: ") and err.count("\n") == 1
        assert flag in err and "Traceback" not in err
