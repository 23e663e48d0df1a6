"""Unit tests for playout-schedule extraction (the E_i structures)."""

from repro.hml import DocumentBuilder
from repro.hml.examples import Figure2Times, figure2_document
from repro.media import MediaType
from repro.model import (
    PlayoutEntry,
    ascii_timeline,
    build_playout_schedule,
    scenario_duration,
)
from tests.helpers import playouts_overlap


def test_figure2_schedule_matches_paper_timeline():
    t = Figure2Times()
    entries = build_playout_schedule(figure2_document(t))
    by_id = {e.stream_id: e for e in entries}
    assert set(by_id) == {"I1", "I2", "A1", "V", "A2"}
    assert by_id["I1"].start_time == 0.0
    assert by_id["I1"].duration == t.d_i1
    assert by_id["I2"].start_time == t.t_i2
    assert by_id["I2"].duration == t.d_i2
    # A1 and V are synchronized: same start, same duration, one group.
    assert by_id["A1"].start_time == by_id["V"].start_time == t.t_a1
    assert by_id["A1"].duration == by_id["V"].duration == t.d_v
    assert by_id["A1"].sync_group == by_id["V"].sync_group
    assert by_id["A1"].is_sync_master and not by_id["V"].is_sync_master
    assert by_id["A2"].start_time == t.t_a2


def test_schedule_sorted_by_start_time():
    entries = build_playout_schedule(figure2_document())
    starts = [e.start_time for e in entries]
    assert starts == sorted(starts)


def test_media_types_assigned():
    entries = build_playout_schedule(figure2_document())
    types = {e.stream_id: e.media_type for e in entries}
    assert types["I1"] is MediaType.IMAGE
    assert types["A1"] is MediaType.AUDIO
    assert types["V"] is MediaType.VIDEO


def test_scenario_duration_figure2():
    t = Figure2Times()
    entries = build_playout_schedule(figure2_document(t))
    assert scenario_duration(entries) == max(t.t_i2 + t.d_i2, t.t_a2 + t.d_a2)


def test_scenario_duration_open_ended_is_none():
    doc = DocumentBuilder("t").audio("s", "A").build()
    assert scenario_duration(build_playout_schedule(doc)) is None
    assert scenario_duration([]) == 0.0


def test_overlaps_semantics():
    a = PlayoutEntry("a", MediaType.AUDIO, "s", 0.0, 5.0)
    b = PlayoutEntry("b", MediaType.VIDEO, "s", 4.0, 5.0)
    c = PlayoutEntry("c", MediaType.AUDIO, "s", 5.0, 5.0)
    open_ended = PlayoutEntry("o", MediaType.AUDIO, "s", 3.0, None)
    assert playouts_overlap(a, b) and playouts_overlap(b, a)
    assert not playouts_overlap(a, c)  # touching intervals do not overlap
    assert (playouts_overlap(a, open_ended)
            and playouts_overlap(open_ended, a))
    early = PlayoutEntry("e", MediaType.AUDIO, "s", 0.0, 2.0)
    assert not playouts_overlap(
        early, PlayoutEntry("x", MediaType.AUDIO, "s", 2.0, None))


def test_ascii_timeline_shape():
    entries = build_playout_schedule(figure2_document())
    art = ascii_timeline(entries, width=50)
    lines = art.splitlines()
    assert len(lines) == 6  # 5 streams + scale
    assert lines[0].lstrip().startswith("A1") or "I1" in art
    assert "[sync]" in art
    assert "=" in art
    assert ascii_timeline([]) == "(empty scenario)"


def test_ascii_timeline_open_ended_arrow():
    doc = DocumentBuilder("t").audio("s", "A").build()
    art = ascii_timeline(build_playout_schedule(doc))
    assert ">" in art
