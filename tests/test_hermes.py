"""Tests for the Hermes distance-education application."""

import pytest

from repro.des import Simulator
from repro.hermes import (
    Attachment,
    HermesCatalog,
    HermesService,
    LessonBuilder,
    MailMessage,
    MailService,
    make_course,
)
from repro.hml import parse, validate_document
from repro.net import Network


# ---------------------------------------------------------------- lessons
def test_lesson_builder_produces_valid_document():
    lesson = (
        LessonBuilder("l1", "Networking 101", topic="nets")
        .intro("Welcome")
        .section("Basics", "A network moves packets.")
        .narrated_slide("m:/s1.gif", "m:/n1.au", duration=5.0)
        .video_segment("m:/v1.mpg", "m:/a1.au", duration=10.0)
        .next_lesson("l2")
        .build()
    )
    issues = [i for i in validate_document(lesson.document) if i.is_error]
    assert not issues
    assert lesson.title == "Networking 101"
    assert parse(lesson.markup).title == "Networking 101"


def test_lesson_builder_scenario_clock():
    lesson = (
        LessonBuilder("l1", "T", topic="x")
        .narrated_slide("m:/s.gif", "m:/n.au", duration=5.0)
        .video_segment("m:/v.mpg", "m:/a.au", duration=7.0)
        .next_lesson("l2")
        .build()
    )
    # each segment starts where the last ended; the link fires at the end
    starts = [getattr(e, "startime", getattr(e, "audio_startime", None))
              for e in lesson.document.elements]
    assert [t for t in starts if t is not None] == [0.0, 0.0, 5.0]
    (link,) = lesson.document.hyperlinks()
    assert link.at_time == 12.0


def test_make_course_links_sequentially():
    lessons = make_course("algo", "algorithms", n_lessons=3)
    assert [l.name for l in lessons] == ["algo-1", "algo-2", "algo-3"]
    doc1 = lessons[0].document
    seq = [l for l in doc1.hyperlinks() if l.kind.value == "sequential"]
    assert seq[0].target == "algo-2"
    # Later lessons link back exploratively.
    back = [l for l in lessons[2].document.hyperlinks()
            if l.kind.value == "explorational"]
    assert back[0].target == "algo-1"
    with pytest.raises(ValueError):
        make_course("x", "y", n_lessons=0)


# ---------------------------------------------------------------- catalog
def test_catalog_listing_and_units():
    cat = HermesCatalog()
    cat.register("srv-nets", "Networking lessons", ["networking", "internet"])
    cat.register("srv-arts", "Art history", ["painting"])
    assert len(cat) == 2
    assert [d.name for d in cat.listing()] == ["srv-arts", "srv-nets"]
    assert cat.servers_for_unit("Internet") == ["srv-nets"]
    assert cat.get("srv-arts").covers("painting")
    with pytest.raises(ValueError):
        cat.register("srv-nets", "dup", ["x"])
    with pytest.raises(ValueError):
        cat.register("srv-empty", "no units", [])
    with pytest.raises(KeyError):
        cat.get("nope")


# ---------------------------------------------------------------- mail
def build_mail():
    sim = Simulator()
    net = Network(sim)
    for n in ("hub", "alice-pc", "tutor-pc"):
        net.add_node(n)
    net.add_duplex_link("alice-pc", "hub", 2e6, 0.01)
    net.add_duplex_link("tutor-pc", "hub", 2e6, 0.01)
    svc = MailService(sim, net, hub_node="hub")
    svc.register("alice", "alice-pc")
    svc.register("tutor", "tutor-pc")
    return sim, net, svc


def test_mail_roundtrip_with_attachment():
    sim, net, svc = build_mail()
    msg = MailMessage(
        sender="alice", recipient="tutor", subject="Q",
        body="Why do buffers underflow?",
        attachments=(Attachment("shot.gif", "image/gif", 12_000),),
    )
    done = svc.send(msg)
    sim.run(until=done)
    sim.run()
    box = svc.mailbox("tutor")
    assert len(box.messages) == 1
    assert box.messages[0].subject == "Q"
    assert box.messages[0].size_bytes > 12_000
    assert [a.filename for a in box.messages[0].attachments] == ["shot.gif"]
    assert "SMTP" in net.tap.bytes_by_protocol


def test_mail_threading():
    sim, net, svc = build_mail()
    q = MailMessage(sender="alice", recipient="tutor", subject="Q", body="?")
    svc.send(q)
    r = MailMessage(sender="tutor", recipient="alice", subject="Re: Q",
                    body="see lesson 2", in_reply_to=q.message_id)
    svc.send(r)
    sim.run()
    assert svc.delivered == 2
    thread = svc.mailbox("alice").thread(q.message_id)
    assert [m.subject for m in thread] == ["Re: Q"]


def test_each_mail_service_numbers_its_own_messages():
    """Mail ids, and so the ``mail-<id>`` flows, count per service: a
    second service in the same process starts at 1 again."""
    for _ in range(2):
        sim, net, svc = build_mail()
        msgs = [MailMessage(sender="alice", recipient="tutor", subject=s,
                            body="?") for s in "QR"]
        for msg in msgs:
            svc.send(msg)
        sim.run()
        assert [m.message_id for m in msgs] == [1, 2]
        assert set(net.tap.count_by_flow["SMTP"]) == {"mail-1", "mail-2"}


def test_mail_validation():
    sim, net, svc = build_mail()
    with pytest.raises(KeyError):
        svc.send(MailMessage(sender="alice", recipient="ghost",
                             subject="s", body="b"))
    with pytest.raises(KeyError):
        svc.send(MailMessage(sender="ghost", recipient="tutor",
                             subject="s", body="b"))
    with pytest.raises(ValueError):
        Attachment("x.xyz", "application/zip", 10)
    with pytest.raises(ValueError):
        svc.register("alice", "alice-pc")


# ---------------------------------------------------------------- service
def test_hermes_end_to_end_lesson_viewing():
    svc = HermesService()
    svc.add_hermes_server(
        "hermes-nets", "Networking thematic unit", ["networking"],
        make_course("nets", "networking", n_lessons=2, segment_s=4.0),
    )
    assert svc.pick_server_for("networking") == "hermes-nets"
    result = svc.view_lesson("hermes-nets", "nets-1", user_id="alice")
    assert result.completed
    # Segment 1 is the narrated slide (NARR1), segment 2 the A/V pair.
    assert result.streams["NARR1"].frames_played > 150  # 4 s at 50 fps
    assert result.streams["LA2"].frames_played > 150
    assert result.worst_skew_s() < 0.08
    assert svc.tutors_way("nets-1") == ["nets-1", "nets-2"]


def test_hermes_autoplay_whole_course():
    svc = HermesService()
    svc.add_hermes_server(
        "hermes-a", "Unit A", ["alpha"],
        make_course("alpha", "alpha", n_lessons=3, segment_s=2.0),
    )
    visits = svc.engine.orchestrator.run_autoplay_sequence("hermes-a",
                                                           "alpha-1")
    assert [v["document"] for v in visits] == \
        ["alpha-1", "alpha-2", "alpha-3"]
    assert all(v["frames"] > 50 for v in visits)


def test_hermes_distributed_search():
    svc = HermesService()
    svc.add_hermes_server(
        "hermes-a", "Unit A", ["alpha"],
        make_course("alpha", "alpha", n_lessons=1),
    )
    svc.add_hermes_server(
        "hermes-b", "Unit B", ["beta"],
        make_course("beta", "beta", n_lessons=1),
    )
    results = svc.search_all("hermes-a", "lesson")
    assert set(results) == {"hermes-a", "hermes-b"}


def test_hermes_tutor_interaction():
    svc = HermesService()
    svc.add_hermes_server(
        "hermes-a", "Unit A", ["alpha"],
        make_course("alpha", "alpha", n_lessons=2),
    )
    svc.mail.register("alice", ServiceEngineClient())
    svc.mail.register("tutor", ServiceEngineClient())
    q = svc.ask_tutor("alice", "tutor", "alpha-1", "What is alpha?")
    svc.tutor_reply("tutor", "alice", q, ["alpha-2"])
    svc.run()
    replies = svc.mail.mailbox("alice").thread(q.message_id)
    assert replies and "alpha-2" in replies[0].body


def ServiceEngineClient():
    from repro.core.engine import ServiceEngine

    return ServiceEngine.CLIENT
