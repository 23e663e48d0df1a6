"""Tests for the Hermes browser facilities and the CLI front end."""

import pytest

from repro.hermes import HermesBrowser, HermesService, make_course
from repro.__main__ import EXPERIMENTS, FIGURES, main


@pytest.fixture
def svc():
    s = HermesService()
    s.add_hermes_server(
        "hermes-x", "Unit X", ["xunit"],
        make_course("x", "xunit", n_lessons=3, segment_s=3.0),
    )
    return s


def test_browser_view_and_history(svc):
    b = HermesBrowser(svc, "alice")
    r1 = b.view("x-1")
    assert r1.completed
    b.view("x-2")
    assert b.history.current == "x-2"
    r_back = b.back()
    assert b.history.current == "x-1"
    assert r_back.completed
    r_fwd = b.forward()
    assert b.history.current == "x-2"
    assert r_fwd.completed
    assert b.history.entries() == ["x-1", "x-2"]


def test_browser_resolves_server_from_catalogue(svc):
    b = HermesBrowser(svc, "alice")
    b.view("x-1")  # on the server the catalogue picks
    with pytest.raises(KeyError):
        b.view("ghost-lesson")


def test_browser_annotations(svc):
    b = HermesBrowser(svc, "alice")
    with pytest.raises(RuntimeError):
        b.annotate("too early")  # nothing viewed yet
    b.view("x-1")
    ann = b.annotate("great explanation", element_id="LV2",
                     presentation_time_s=4.0)
    assert ann.document == "x-1"
    assert ann.author == "alice"
    assert ann.created_at == svc.engine.sim.now  # the wall-time stamp
    assert (ann.element_id, ann.presentation_time_s) == ("LV2", 4.0)
    assert b.annotations.for_document("x-1") == [ann]
    assert b.annotations.for_document("x-2") == []


# ----------------------------------------------------------------- CLI
def test_cli_list_and_help(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out
    for key in FIGURES:
        assert key in out
    assert main(["help"]) == 0


def test_cli_run_figure(capsys):
    assert main(["run", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "[sync]" in out
    assert main(["run", "table1"]) == 0
    assert "STARTIME" in capsys.readouterr().out
    assert main(["run", "fig1"]) == 0
    assert "<Hdocument>" in capsys.readouterr().out
    assert main(["run", "fig4"]) == 0
    assert "viewing" in capsys.readouterr().out


def test_cli_run_fast_experiments(capsys):
    assert main(["run", "e4"]) == 0
    assert "admit_gold_%" in capsys.readouterr().out
    assert main(["run", "e7"]) == 0
    assert "hermes" in capsys.readouterr().out


def test_cli_error_paths(capsys):
    assert main(["run"]) == 2
    assert main(["run", "e99"]) == 2
    assert main(["frobnicate"]) == 2
