"""Unit tests for the document web and presentation scenario."""

import pytest

from repro.hml import DocumentBuilder, LinkKind
from repro.hml.examples import figure2_document
from repro.model import DocumentWeb, PresentationScenario


def doc_with_links(title, *links):
    b = DocumentBuilder(title)
    for target, kind, at in links:
        b.hyperlink(target, kind=kind, at_time=at)
    return b.build()


# ---------------------------------------------------------------- web
def test_sequential_path_follows_author_order():
    web = DocumentWeb()
    web.add_document("d1", doc_with_links(
        "One", ("d2", LinkKind.SEQUENTIAL, 30.0),
        ("side", LinkKind.EXPLORATIONAL, None)))
    web.add_document("d2", doc_with_links(
        "Two", ("d3", LinkKind.SEQUENTIAL, None)))
    web.add_document("d3", doc_with_links("Three"))
    web.add_document("side", doc_with_links("Side"))
    assert web.sequential_path("d1") == ["d1", "d2", "d3"]


def test_sequential_successor_prefers_timed_link():
    web = DocumentWeb()
    web.add_document("d1", doc_with_links(
        "One",
        ("untimed", LinkKind.SEQUENTIAL, None),
        ("timed", LinkKind.SEQUENTIAL, 20.0),
    ))
    assert web.sequential_successor("d1") == "timed"


def test_links_from_groups_parallel_links_by_target_in_first_link_order():
    web = DocumentWeb()
    web.add_document("d1", doc_with_links(
        "One",
        ("b", LinkKind.SEQUENTIAL, None),
        ("c", LinkKind.EXPLORATIONAL, None),
        ("b", LinkKind.EXPLORATIONAL, 5.0),
    ))
    assert [(dst, data["kind"], data["at_time"])
            for dst, data in web.links_from("d1")] == [
        ("b", LinkKind.SEQUENTIAL, None),
        ("b", LinkKind.EXPLORATIONAL, 5.0),
        ("c", LinkKind.EXPLORATIONAL, None),
    ]
    assert [dst for dst, _ in web.links_from(
        "d1", kind=LinkKind.EXPLORATIONAL)] == ["b", "c"]
    assert web.links_from("b") == [] and web.links_from("nowhere") == []
    assert web.documents() == ["b", "c", "d1"]


def test_sequential_path_cycle_safe():
    web = DocumentWeb()
    web.add_document("a", doc_with_links("A", ("b", LinkKind.SEQUENTIAL, None)))
    web.add_document("b", doc_with_links("B", ("a", LinkKind.SEQUENTIAL, None)))
    assert web.sequential_path("a") == ["a", "b"]


def test_dangling_targets_reported():
    # a link target is in the web before its document is added
    web = DocumentWeb()
    web.add_document("a", doc_with_links("A", ("ghost", LinkKind.SEQUENTIAL, None)))
    assert "ghost" in web and web.links_from("ghost") == []
    web.add_document("ghost", doc_with_links("Ghost"))
    assert web.documents() == ["a", "ghost"]


def test_cross_server_links_detected():
    web = DocumentWeb()
    web.add_document("a", doc_with_links(
        "A", ("srv2:far", LinkKind.EXPLORATIONAL, None)), host="srv1")
    web.add_document("far", doc_with_links("Far"), host="srv2")
    # a cross-server link joins host-qualified keys
    assert [dst for dst, _ in web.links_from("srv1:a")] == ["srv2:far"]
    assert web.documents() == ["srv1:a", "srv2:far"]


def test_reachable_and_duplicates():
    web = DocumentWeb()
    web.add_document("a", doc_with_links("A", ("b", LinkKind.SEQUENTIAL, None)))
    web.add_document("b", doc_with_links("B"))
    assert web.sequential_path("a") == ["a", "b"]
    with pytest.raises(ValueError):
        web.add_document("a", doc_with_links("A again"))


# ---------------------------------------------------------------- scenario
def test_scenario_from_figure2():
    sc = PresentationScenario.from_document(figure2_document())
    assert sc.title == "Figure 2 scenario"
    assert len(sc.streams) == 5
    assert {s.stream_id for s in sc.continuous_streams()} == {"A1", "A2", "V"}
    assert {s.stream_id for s in sc.discrete_streams()} == {"I1", "I2"}
    groups = sc.sync_groups()
    assert len(groups) == 1
    (members,) = groups.values()
    assert {m.stream_id for m in members} == {"A1", "V"}
    assert sc.timed_link() is not None
    assert sc.duration == 18.0  # max(6+10, 13+5) with default times


def test_scenario_stream_lookup():
    sc = PresentationScenario.from_document(figure2_document())
    assert sc.stream("V").server == "vidsrv"
    with pytest.raises(KeyError):
        sc.stream("nope")


def test_scenario_rejects_invalid_document():
    bad = (
        DocumentBuilder("t")
        .audio("s", "X", duration=1.0)
        .video("s", "X", duration=1.0)  # duplicate id
        .build()
    )
    with pytest.raises(ValueError, match="not unique"):
        PresentationScenario.from_document(bad)


def test_scenario_from_markup():
    sc = PresentationScenario.from_markup(
        "<TITLE> m </TITLE>"
        "<AU> STARTIME=0 DURATION=2 SOURCE=aud:/x.au ID=A </AU>"
    )
    assert sc.title == "m"
    assert sc.duration == 2.0
    assert sc.streams[0].locator.server == "aud"
