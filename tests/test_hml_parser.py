"""Unit tests for the HML parser."""

import pytest

from repro.hml import (
    AudioElement,
    AudioVideoElement,
    Heading,
    HmlSyntaxError,
    HyperLink,
    ImageElement,
    LinkKind,
    Paragraph,
    Separator,
    TextBlock,
    VideoElement,
    parse,
)

DOC = """
<TITLE> Lesson one </TITLE>
<H1> Introduction </H1>
<TEXT> Welcome to the lesson. <B> Important! </B> <I> Really. </I> </TEXT>
<PAR>
<IMG> STARTIME=0 DURATION=5 HEIGHT=200 WIDTH=300 WHERE=(10,20)
      SOURCE=imgsrv:/i1.gif ID=I1 NOTE="first image" </IMG>
<AU> STARTIME=2 DURATION=8 SOURCE=audsrv:/a1.au ID=A1 </AU>
<VI> STARTIME=2 DURATION=8 SOURCE=vidsrv:/v1.mpg ID=V1 </VI>
<AU_VI> STARTIME=10 STARTIME=10 DURATION=6
        SOURCE=audsrv:/a2.au SOURCE=vidsrv:/v2.mpg ID=A2 ID=V2 </AU_VI>
<SEP>
<HLINK> AT 30 lesson-two NOTE="continue" </HLINK>
<HLINK> related-topic KIND=explorational </HLINK>
"""


def test_full_document_structure():
    doc = parse(DOC)
    assert doc.title == "Lesson one"
    types = [type(e) for e in doc.elements]
    assert types == [
        Heading, TextBlock, Paragraph, ImageElement, AudioElement,
        VideoElement, AudioVideoElement, Separator, HyperLink, HyperLink,
    ]


def test_heading_levels():
    doc = parse("<TITLE> t </TITLE><H1> one </H1><H2> two </H2><H3> three </H3>")
    levels = [e.level for e in doc.elements]
    assert levels == [1, 2, 3]


def test_text_formatting_spans():
    doc = parse(DOC)
    block = next(e for e in doc.elements if isinstance(e, TextBlock))
    assert block.spans[0].text == "Welcome to the lesson."
    assert not block.spans[0].bold
    assert block.spans[1].text == "Important!"
    assert block.spans[1].bold and not block.spans[1].italic
    assert block.spans[2].italic and not block.spans[2].bold


def test_image_attributes():
    doc = parse(DOC)
    img = next(e for e in doc.elements if isinstance(e, ImageElement))
    assert img.source == "imgsrv:/i1.gif"
    assert img.element_id == "I1"
    assert img.startime == 0.0
    assert img.duration == 5.0
    assert img.width == 300 and img.height == 200
    assert img.where == (10, 20)
    assert img.note == "first image"


def test_audio_video_pair():
    doc = parse(DOC)
    av = next(e for e in doc.elements if isinstance(e, AudioVideoElement))
    assert av.audio_source == "audsrv:/a2.au"
    assert av.video_source == "vidsrv:/v2.mpg"
    assert av.audio_id == "A2" and av.video_id == "V2"
    assert av.audio_startime == av.video_startime == 10.0
    assert av.duration == 6.0


def test_hyperlinks():
    doc = parse(DOC)
    links = doc.hyperlinks()
    assert links[0].target == "lesson-two"
    assert links[0].at_time == 30.0
    assert links[0].kind is LinkKind.SEQUENTIAL  # inferred from AT
    assert links[0].note == "continue"
    assert links[1].target == "related-topic"
    assert links[1].kind is LinkKind.EXPLORATIONAL
    assert links[1].at_time is None


def test_cross_host_link_target():
    doc = parse("<TITLE> t </TITLE><HLINK> otherhost:doc2 </HLINK>")
    link = doc.hyperlinks()[0]
    assert link.target_host == "otherhost"
    assert link.target_document == "doc2"


def test_startime_defaults_to_zero():
    doc = parse("<TITLE> t </TITLE><AU> SOURCE=s ID=A </AU>")
    au = doc.elements[0]
    assert au.startime == 0.0
    assert au.duration is None


def test_au_vi_single_startime_shared():
    doc = parse(
        "<TITLE> t </TITLE>"
        "<AU_VI> STARTIME=4 SOURCE=a SOURCE=v ID=A ID=V </AU_VI>"
    )
    av = doc.elements[0]
    assert av.audio_startime == av.video_startime == 4.0


def test_element_ids_collects_av_pair():
    doc = parse(DOC)
    assert doc.element_ids() == ["I1", "A1", "V1", "A2", "V2"]


# -------------------------------------------------------------- errors
@pytest.mark.parametrize(
    "markup,match",
    [
        ("<H1> no title first </H1>", "expected tag-open TITLE"),
        ("<TITLE> t </TITLE><IMG> ID=I </IMG>", "requires SOURCE"),
        ("<TITLE> t </TITLE><IMG> SOURCE=s </IMG>", "requires ID"),
        ("<TITLE> t </TITLE><IMG> SOURCE=s ID=I STARTIME=abc </IMG>",
         "expects a number"),
        ("<TITLE> t </TITLE><IMG> SOURCE=s ID=I WHERE=nope </IMG>",
         "expects"),
        ("<TITLE> t </TITLE><IMG> SOURCE=s SOURCE=t ID=I </IMG>", "duplicate"),
        ("<TITLE> t </TITLE><AU_VI> SOURCE=a ID=A ID=V </AU_VI>",
         "two SOURCE"),
        ("<TITLE> t </TITLE><HLINK> NOTE=x </HLINK>", "requires a target"),
        ("<TITLE> t </TITLE><HLINK> a b </HLINK>", "multiple link targets"),
        ("<TITLE> t </TITLE><HLINK> AT </HLINK>", "AT requires"),
        ("<TITLE> t </TITLE><HLINK> doc KIND=upward </HLINK>", "KIND must be"),
        ("<TITLE> t </TITLE><TEXT> unterminated", "unterminated"),
        ("<TITLE> t </TITLE><TEXT> <B> x ", "unterminated"),
        ("<TITLE> t </TITLE><TEXT> </B> </TEXT>", "without opening"),
        ("<TITLE> t </TITLE><TEXT> <B> <B> x </B> </B> </TEXT>",
         "already open"),
        ("<TITLE> t </TITLE><TEXT> <IMG> </IMG> </TEXT>", "not allowed inside"),
        ("<TITLE> t </TITLE><IMG> SOURCE=s ID=I bare </IMG>", "bare token"),
        ("<TITLE> t </TITLE><IMG> SOURCE=s ID=I COLOR=red </IMG>",
         "unknown attribute"),
        ("<TITLE> t </TITLE></H1>", "expected an element tag"),
    ],
)
def test_parse_errors(markup, match):
    with pytest.raises(HmlSyntaxError, match=match):
        parse(markup)


def test_nested_bold_italic():
    doc = parse("<TITLE> t </TITLE><TEXT> <B> <I> both </I> </B> </TEXT>")
    span = next(e for e in doc.elements if isinstance(e, TextBlock)).spans[0]
    assert span.bold and span.italic


def test_quoted_note_with_spaces_and_equals():
    doc = parse(
        '<TITLE> t </TITLE><AU> SOURCE=s ID=A NOTE="x = y, z" </AU>'
    )
    assert doc.elements[0].note == "x = y, z"
