"""Unit tests for content resolution and layout."""

import pytest

from repro.hml import DocumentBuilder, TextSpan
from repro.hml.examples import figure2_document
from repro.media import MediaType
from repro.model import ContentIndex, LayoutEngine, Region
from tests.helpers import regions_overlap


# ---------------------------------------------------------------- content
def test_content_index_from_figure2():
    idx = ContentIndex.from_document(figure2_document())
    assert len(idx) == 5
    assert idx.ids() == ["A1", "A2", "I1", "I2", "V"]
    assert idx.get("I1").server == "imgsrv"
    assert idx.get("I1").path == "/I1.gif"
    assert idx.get("V").media_type is MediaType.VIDEO
    assert idx.servers() == {"imgsrv", "audsrv", "vidsrv"}
    assert sorted(eid for eid in idx.ids()
                  if idx.get(eid).media_type.is_continuous) == ["A1", "A2", "V"]


def test_content_by_server_grouping():
    idx = ContentIndex.from_document(figure2_document())
    groups = idx.by_server()
    assert sorted(groups) == ["audsrv", "imgsrv", "vidsrv"]
    assert [l.element_id for l in groups["audsrv"]] == ["A1", "A2"]


def test_content_sourceless_server_defaults_to_local():
    doc = DocumentBuilder("t").image("local.gif", "I", duration=1.0).build()
    idx = ContentIndex.from_document(doc)
    loc = idx.get("I")
    assert loc.server == ""
    assert loc.path == "local.gif"
    assert loc.source == "local.gif"


def test_content_unknown_id_raises():
    idx = ContentIndex.from_document(figure2_document())
    with pytest.raises(KeyError):
        idx.get("ZZ")
    assert "ZZ" not in idx


# ---------------------------------------------------------------- layout
def test_region_geometry():
    r = Region(10, 20, 100, 50)
    assert r.x2 == 110 and r.y2 == 70
    assert regions_overlap(r, Region(50, 40, 100, 100))
    assert not regions_overlap(r, Region(110, 20, 10, 10))  # adjacent, not overlapping
    with pytest.raises(ValueError):
        Region(0, 0, 0, 10)


def test_layout_vertical_flow():
    doc = (
        DocumentBuilder("t")
        .heading(1, "Title")
        .text("hello")
        .image("s:/i.gif", "I1", duration=1.0, width=100, height=50)
        .video("s:/v.mpg", "V1", duration=1.0)
        .build()
    )
    layout = LayoutEngine().layout(doc)
    h = layout.region("heading:0")
    t = layout.region("text:1")
    i = layout.region("I1")
    v = layout.region("V1")
    assert h.y == 0
    assert t.y == h.y2
    assert i.y == t.y2
    assert v.y == i.y2
    assert i.width == 100 and i.height == 50


def test_layout_explicit_where_respected():
    doc = (
        DocumentBuilder("t")
        .image("s:/i.gif", "I1", duration=1.0, where=(400, 300),
               width=50, height=50)
        .build()
    )
    layout = LayoutEngine().layout(doc)
    r = layout.region("I1")
    assert (r.x, r.y) == (400, 300)


def test_layout_audio_has_no_region_av_video_does():
    doc = (
        DocumentBuilder("t")
        .audio("s:/a.au", "A1", duration=1.0)
        .audio_video("s:/a.au", "s:/v.mpg", "A2", "V2", duration=1.0)
        .build()
    )
    layout = LayoutEngine().layout(doc)
    assert "A1" not in layout.regions
    assert "A2" not in layout.regions
    assert "V2" in layout.regions


def test_layout_paragraph_and_separator_advance_cursor():
    doc1 = DocumentBuilder("t").text("a").text("b").build()
    doc2 = DocumentBuilder("t").text("a").paragraph().separator().text("b").build()
    l1 = LayoutEngine().layout(doc1)
    l2 = LayoutEngine().layout(doc2)
    assert l2.region("text:3").y > l1.region("text:1").y


def test_layout_long_text_wraps_lines():
    short = DocumentBuilder("t").text("short").build()
    long = DocumentBuilder("t").text(TextSpan("x" * 500)).build()
    hs = LayoutEngine().layout(short).region("text:0").height
    hl = LayoutEngine().layout(long).region("text:0").height
    assert hl > hs


def test_layout_overflow_detection():
    doc = DocumentBuilder("t").image("s", "I", duration=1.0, where=(790, 590),
                                     width=100, height=100).build()
    layout = LayoutEngine().layout(doc)
    assert layout.region("I").x2 > layout.canvas_width


def test_layout_engine_validation():
    layout = LayoutEngine().layout(DocumentBuilder("t").build())
    with pytest.raises(KeyError):
        layout.region("missing")
