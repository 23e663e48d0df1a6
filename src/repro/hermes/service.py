"""Hermes service composition on top of the core engine (§6).

Builds a multi-server distance-education deployment: each Hermes
server carries a thematic unit's course(s), the catalogue advertises
server descriptions, the mail service connects students and tutors,
and convenience wrappers script the §6.2 user workflows (connect/
subscribe, search, view a lesson, ask the tutor).
"""

from __future__ import annotations

from repro.core.engine import ServiceEngine
from repro.core.results import SessionResult
from repro.hermes.catalog import HermesCatalog
from repro.hermes.lessons import Lesson
from repro.hermes.mail import MailMessage, MailService
from repro.model.links import DocumentWeb

__all__ = ["HermesService"]


class HermesService:
    """A deployed Hermes installation."""

    def __init__(self) -> None:
        self.engine = ServiceEngine()
        self.catalog = HermesCatalog()
        self.web = DocumentWeb()
        self.lessons: dict[str, Lesson] = {}
        self._mail: MailService | None = None

    # -- provisioning -----------------------------------------------------
    def add_hermes_server(self, name: str, description: str,
                          thematic_units: list[str],
                          lessons: list[Lesson]) -> None:
        """Stand up one Hermes server with its lessons."""
        self.catalog.register(name, description, thematic_units)
        self.engine.add_server(name, description=description)
        for lesson in lessons:
            if lesson.name in self.lessons:
                raise ValueError(f"lesson {lesson.name!r} already deployed")
            self.engine.add_document(name, lesson.name, lesson.markup,
                                     topic=lesson.topic)
            self.lessons[lesson.name] = lesson
            self.web.add_document(lesson.name, lesson.document)

    @property
    def mail(self) -> MailService:
        """The e-mail service (created on first use, hub on the router)."""
        if self._mail is None:
            self._mail = MailService(self.engine.sim, self.engine.network,
                                     hub_node=ServiceEngine.ROUTER)
        return self._mail

    # -- §6.2 workflows ------------------------------------------------------
    def pick_server_for(self, unit: str) -> str:
        """The connect-time server choice by thematic unit."""
        candidates = self.catalog.servers_for_unit(unit)
        if not candidates:
            raise KeyError(f"no Hermes server covers {unit!r}")
        return candidates[0]

    def view_lesson(self, server: str, lesson_name: str,
                    user_id: str = "student1") -> SessionResult:
        """Full §6.2.3 workflow: connect, retrieve, present, disconnect."""
        return self.engine.orchestrator.run_full_session(
            server, lesson_name, user_id=user_id)

    def search_all(self, from_server: str, token: str) -> dict[str, list[str]]:
        """§6.2.2 distributed search, initiated at ``from_server``."""
        return self.engine.servers[from_server].search(token)

    def tutors_way(self, first_lesson: str) -> list[str]:
        """The sequential path of a course, from its first lesson."""
        return self.web.sequential_path(first_lesson)

    def ask_tutor(self, student: str, tutor: str, lesson_name: str,
                  question: str) -> MailMessage:
        """§6.2.4: the student mails the tutor about a lesson."""
        msg = MailMessage(
            sender=student, recipient=tutor,
            subject=f"Question about {lesson_name}",
            body=question,
        )
        self.mail.send(msg)
        return msg

    def tutor_reply(self, tutor: str, student: str,
                    original: MailMessage,
                    suggested_lessons: list[str]) -> MailMessage:
        """The tutor replies, 'prompting him/her to retrieve specific
        lessons from the service'."""
        body = "Please review: " + ", ".join(suggested_lessons)
        msg = MailMessage(
            sender=tutor, recipient=student,
            subject=f"Re: {original.subject}", body=body,
            in_reply_to=original.message_id,
        )
        self.mail.send(msg)
        return msg

    def run(self, until: float | None = None) -> None:
        self.engine.sim.run(until=until)
