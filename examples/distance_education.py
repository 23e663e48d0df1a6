"""Hermes distance education (paper §6): a two-server deployment with
a networking course and an art-history course, exercising the §6.2
workflows — server choice, subscription, distributed search, viewing
a lesson along the tutor's sequential path, and the asynchronous
tutor↔student e-mail interaction.

Run:  python examples/distance_education.py
"""

from repro.analysis import render_table
from repro.hermes import Attachment, HermesService, MailMessage, make_course
from repro.hml import serialize

#: each course links only within itself; both are fully authored here
SCENARIO_CLOSED = True


def scenario_documents() -> dict[str, str]:
    """Every lesson of both courses, for the scenario analyzer."""
    lessons = (
        make_course("routing", "networking", n_lessons=3, segment_s=5.0,
                    tutor="dr-net")
        + make_course("fresco", "painting", n_lessons=2, segment_s=5.0,
                      tutor="prof-arte")
    )
    return {lesson.name: serialize(lesson.document) for lesson in lessons}


def main() -> None:
    svc = HermesService()
    svc.add_hermes_server(
        "hermes-nets",
        "Lessons on computer networking and the Internet",
        ["networking", "internet"],
        make_course("routing", "networking", n_lessons=3, segment_s=5.0,
                    tutor="dr-net"),
    )
    svc.add_hermes_server(
        "hermes-arts",
        "Lessons on Renaissance painting",
        ["painting"],
        make_course("fresco", "painting", n_lessons=2, segment_s=5.0,
                    tutor="prof-arte"),
    )

    # The connect-time server list (§6.2.1).
    print("--- available Hermes servers ---")
    for d in svc.catalog.listing():
        print(f"  {d.name}: {d.description} "
              f"(units: {', '.join(d.thematic_units)})")
    server = svc.pick_server_for("networking")
    print(f"\nstudent picks {server!r} for the 'networking' unit")

    # Distributed search (§6.2.2): forwarded to every server.
    results = svc.search_all(server, "lesson")
    print("\n--- search 'lesson' across the whole service ---")
    for srv, docs in sorted(results.items()):
        print(f"  {srv}: {', '.join(docs)}")

    # The tutor's way (sequential links).
    path = svc.tutors_way("routing-1")
    print(f"\ntutor's sequential path: {' -> '.join(path)}")

    # View the first two lessons (§6.2.3).
    rows = []
    for lesson in path[:2]:
        r = svc.view_lesson(server, lesson, user_id="alice")
        assert r.completed
        rows.append([
            lesson,
            sum(s.frames_played for s in r.streams.values()),
            r.total_gaps(),
            f"{r.worst_skew_s() * 1e3:.1f}",
            f"{r.startup_latency_s:.2f}",
        ])
    print()
    print(render_table("Lessons viewed",
                       ["lesson", "frames", "gaps", "max skew ms",
                        "startup s"], rows))

    # Ask the tutor (§6.2.4) and get pointed at the next lesson.
    svc.mail.register("alice", svc.engine.CLIENT)
    svc.mail.register("dr-net", "host:hermes-nets")
    question = svc.ask_tutor(
        "alice", "dr-net", "routing-2",
        "I did not understand distance-vector convergence — help?",
    )
    svc.tutor_reply("dr-net", "alice", question,
                    suggested_lessons=["routing-3"])
    svc.run()
    reply = svc.mail.mailbox("alice").thread(question.message_id)[0]
    print(f"\ntutor replied: {reply.subject!r} -> {reply.body!r}")


if __name__ == "__main__":
    main()
