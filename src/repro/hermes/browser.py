"""The Hermes browser facilities (§6.2.3).

"Among the several facilities that can be supported by the browser
are ... moving backward and forward in the list of already viewed
lessons ... Interactive operations can be triggered during the
presentation of the lesson." Plus §5's annotation facility: "the
user may also annotate the selected document with his own remarks."

:class:`HermesBrowser` wraps a :class:`~repro.hermes.service.HermesService`
with per-user navigation history and an annotation store.
"""

from __future__ import annotations

from repro.core.results import SessionResult
from repro.hermes.service import HermesService
from repro.service.annotations import Annotation, AnnotationStore
from repro.service.history import NavigationHistory

__all__ = ["HermesBrowser"]


class HermesBrowser:
    """One user's browser: viewing, history, annotations."""

    def __init__(self, service: HermesService, user_id: str) -> None:
        self.service = service
        self.user_id = user_id
        self.history = NavigationHistory()
        self.annotations = AnnotationStore(author=user_id)
        self.results: dict[str, SessionResult] = {}

    # -- viewing -----------------------------------------------------------
    def view(self, lesson_name: str) -> SessionResult:
        """View a lesson (on the server the catalogue picks for its
        topic) and record it in the history."""
        lesson = self.service.lessons.get(lesson_name)
        if lesson is None:
            raise KeyError(f"unknown lesson {lesson_name!r}")
        result = self.service.view_lesson(
            self.service.pick_server_for(lesson.topic), lesson_name,
            user_id=self.user_id)
        self.history.visit(lesson_name)
        self.results[lesson_name] = result
        return result

    def back(self) -> SessionResult:
        """Re-view the previous lesson in the history (menu button)."""
        lesson = self.history.back()
        result = self.service.view_lesson(
            self.service.pick_server_for(self.service.lessons[lesson].topic),
            lesson, user_id=self.user_id,
        )
        self.results[lesson] = result
        return result

    def forward(self) -> SessionResult:
        lesson = self.history.forward()
        result = self.service.view_lesson(
            self.service.pick_server_for(self.service.lessons[lesson].topic),
            lesson, user_id=self.user_id,
        )
        self.results[lesson] = result
        return result

    # -- annotations -------------------------------------------------------
    def annotate(self, text: str, element_id: str | None = None,
                 presentation_time_s: float | None = None) -> Annotation:
        """Annotate the currently viewed lesson."""
        lesson = self.history.current
        if lesson is None:
            raise RuntimeError("no lesson is being viewed")
        return self.annotations.annotate(
            lesson, text, now=self.service.engine.sim.now,
            element_id=element_id,
            presentation_time_s=presentation_time_s,
        )
