"""Figure 5 — the protocol stack.

Runs a full Hermes lesson delivery plus tutor e-mail and verifies,
from the live packet tap's per-flow counters, that each stream type
traversed the stack the paper assigns it: scenario/text/images → TCP;
audio/video → RTP (over UDP); feedback → RTCP; student↔tutor mail →
SMTP/MIME.
"""

from repro.analysis import render_table
from repro.hermes import Attachment, HermesService, MailMessage, make_course


def run_lesson_and_mail():
    svc = HermesService()
    svc.add_hermes_server(
        "hermes-nets", "Networking unit", ["networking"],
        make_course("nets", "networking", n_lessons=1, segment_s=5.0),
    )
    svc.mail.register("student", svc.engine.CLIENT)
    svc.mail.register("tutor", "host:hermes-nets")
    result = svc.view_lesson("hermes-nets", "nets-1", user_id="student")
    q = MailMessage(
        sender="student", recipient="tutor", subject="Question",
        body="Please explain buffering.",
        attachments=(Attachment("notes.gif", "image/gif", 9_000),),
    )
    svc.mail.send(q)
    svc.run()
    return svc, result


def test_fig5_protocol_stack(report, once):
    svc, result = once(run_lesson_and_mail)
    tap = svc.engine.network.tap
    # Per-flow protocol assignment, straight from the tap's counters.
    flows = tap.count_by_flow
    scenario_flows = set(flows.get("TCP", ()))
    rtp_flows = set(flows.get("RTP", ()))
    rtcp_flows = set(flows.get("RTCP", ()))
    smtp_flows = set(flows.get("SMTP", ()))
    # Audio and video streams rode RTP...
    assert {"NARR1", "LA2", "LV2"} <= rtp_flows
    # ...and nothing discrete did.
    assert not any(f.startswith("sess-") and "SLIDE" in f for f in rtp_flows)
    # The control channel and the slide image used the reliable path.
    assert any("SLIDE1" in f for f in scenario_flows)
    assert any(f.startswith("ctl-") for f in scenario_flows)
    # Feedback and mail on their own protocols.
    assert any(f.startswith("rtcp:") for f in rtcp_flows)
    assert any(f.startswith("mail-") for f in smtp_flows)
    # Media dominated the byte volume, as on any real deployment.
    by_proto = tap.bytes_by_protocol
    assert by_proto["RTP"] > by_proto["TCP"] - by_proto.get("SMTP", 0)

    rows = [
        ["presentation scenario + images", "TCP", by_proto.get("TCP", 0)],
        ["audio / video media", "RTP over UDP", by_proto.get("RTP", 0)],
        ["receiver feedback reports", "RTCP", by_proto.get("RTCP", 0)],
        ["tutor <-> student e-mail", "SMTP + MIME", by_proto.get("SMTP", 0)],
    ]
    report("fig5_stack",
           render_table("Figure 5 — protocol stack (bytes observed on each "
                        "path during one lesson + e-mail)",
                        ["stream type", "protocol path", "bytes"], rows))
    assert result.completed
