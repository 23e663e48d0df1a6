"""Unit tests for the multimedia database and flow scheduler."""

import pytest

from repro.hml import DocumentBuilder, serialize
from repro.hml.examples import figure2_document
from repro.media import default_registry
from repro.model import PresentationScenario, check_bandwidth
from repro.server import FlowScheduler, MultimediaDatabase
from repro.server.accounts import QoSPreferences
from tests.helpers import add_document


def lesson(title, text):
    return DocumentBuilder(title).text(text).build()


@pytest.fixture
def db():
    d = MultimediaDatabase()
    add_document(d, "intro", lesson("Introduction to Networks",
                                   "packets travel across links"),
                   topic="networking")
    add_document(d, "atm", lesson("ATM Networks", "cells and virtual circuits"),
                   topic="networking")
    add_document(d, "poetry", lesson("Greek Poetry", "verses and meters"),
                   topic="literature")
    return d


# ---------------------------------------------------------------- database
def test_database_storage_and_topics(db):
    assert len(db) == 3
    assert db.topics() == ["literature", "networking"]
    assert [n for n in db.names()
            if db.get(n).topic == "networking"] == ["atm", "intro"]
    assert db.get("intro").topic == "networking"
    assert "intro" in db and "zzz" not in db


def test_database_search(db):
    assert db.search("packets") == ["intro"]
    assert db.search("networks") == ["atm", "intro"]  # title terms
    assert db.search("verses") == ["poetry"]
    assert db.search("quantum") == []
    assert db.search("") == []


def test_database_search_prefix(db):
    assert db.search("packet") == ["intro"]  # prefix match


def test_database_markup_roundtrip(db):
    markup = serialize(figure2_document())
    db.add_markup("fig2", markup, topic="demo")
    stored = db.get("fig2")
    assert stored.markup == markup
    assert stored.size_bytes == len(markup.encode())
    assert stored.document.title == "Figure 2 scenario"


def test_database_duplicate_and_empty_rejected(db):
    with pytest.raises(ValueError):
        add_document(db, "intro", lesson("x", "y"))
    with pytest.raises(ValueError):
        add_document(db, "  ", lesson("x", "y"))
    with pytest.raises(KeyError):
        db.get("missing")


# ---------------------------------------------------------------- flows
def test_flow_scenario_from_figure2():
    scheduler = FlowScheduler(default_registry())
    scenario = PresentationScenario.from_document(figure2_document())
    flow = scheduler.compute(scenario, lead_s=1.5)
    assert flow.lead_s == 1.5
    cont = {f.stream_id: f for f in flow.continuous()}
    assert set(cont) == {"A1", "A2", "V"}
    # Continuous streams start sending at their scenario times.
    assert cont["A1"].send_offset_s == 4.0
    assert cont["V"].send_offset_s == 4.0
    assert cont["A2"].send_offset_s == 13.0
    # Rates come from the codecs' grade-0 rungs.
    codecs = default_registry()
    assert cont["V"].initial_grade == cont["A1"].initial_grade == 0
    assert codecs.default_for(cont["V"].media_type).grade(0).bitrate_bps \
        == 1_500_000
    assert codecs.default_for(cont["A1"].media_type).grade(0).bitrate_bps \
        == 64_000
    # Discrete objects fetch eagerly.
    disc = {f.stream_id: f for f in flow.discrete()}
    assert set(disc) == {"I1", "I2"}
    assert all(f.send_offset_s == 0.0 for f in disc.values())


def test_flow_grouping_by_server():
    scheduler = FlowScheduler(default_registry())
    scenario = PresentationScenario.from_document(figure2_document())
    flow = scheduler.compute(scenario)
    groups = flow.by_server()
    assert sorted(groups) == ["audsrv", "imgsrv", "vidsrv"]
    assert {f.stream_id for f in groups["audsrv"]} == {"A1", "A2"}


def test_flow_peak_rate():
    scenario = PresentationScenario.from_document(figure2_document())
    # A1 (64k) + V (1.5M) overlap in [4, 12); A2 alone later.
    assert check_bandwidth(scenario.schedule, None).peak_bps == \
        pytest.approx(1_564_000)


def test_flow_respects_user_floor_grades():
    scheduler = FlowScheduler(default_registry())
    scenario = PresentationScenario.from_document(figure2_document())
    prefs = QoSPreferences(video_floor_grade=2, audio_floor_grade=1)
    flow = scheduler.compute(scenario, prefs=prefs, initial_grade=5)
    cont = {f.stream_id: f for f in flow.continuous()}
    assert cont["V"].initial_grade == 2
    assert cont["A1"].initial_grade == 1


def test_flow_validation():
    scheduler = FlowScheduler(default_registry())
    scenario = PresentationScenario.from_document(figure2_document())
    with pytest.raises(ValueError):
        scheduler.compute(scenario, lead_s=-1.0)
