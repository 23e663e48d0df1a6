"""Lesson authoring for Hermes (§6.1).

"For every lesson a presentation scenario is associated. The
presentation scenario of a lesson actually describes the
spatio-temporal relationships among various media objects."

:class:`LessonBuilder` layers pedagogy-flavoured helpers over the HML
:class:`~repro.hml.builder.DocumentBuilder`; :func:`make_course`
produces a chain of lessons linked sequentially (the tutor's way)
with explorational side links.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hml.ast import HmlDocument, LinkKind
from repro.hml.builder import DocumentBuilder
from repro.hml.serializer import serialize

__all__ = ["Lesson", "LessonBuilder", "make_course"]


@dataclass(slots=True)
class Lesson:
    """One lesson: a named, topic-tagged presentation scenario."""

    name: str
    topic: str
    tutor: str
    document: HmlDocument

    @property
    def title(self) -> str:
        return self.document.title

    @property
    def markup(self) -> str:
        return serialize(self.document)


class LessonBuilder:
    """Author a lesson with narration-synced media segments."""

    def __init__(self, name: str, title: str, topic: str,
                 tutor: str = "tutor") -> None:
        self.name = name
        self.topic = topic
        self.tutor = tutor
        self._builder = DocumentBuilder(title)
        self._clock = 0.0  # running scenario time
        self._segment = 0

    def intro(self, text: str) -> "LessonBuilder":
        self._builder.heading(1, text)
        return self

    def section(self, heading: str, text: str) -> "LessonBuilder":
        self._builder.heading(2, heading).text(text).paragraph()
        return self

    def narrated_slide(self, image_path: str, narration_path: str,
                       duration: float) -> "LessonBuilder":
        """A slide image displayed while a narration audio plays."""
        self._segment += 1
        sid = self._segment
        self._builder.image(
            image_path, element_id=f"SLIDE{sid}", startime=self._clock,
            duration=duration, note=f"slide {sid}",
        )
        self._builder.audio(
            narration_path, element_id=f"NARR{sid}", startime=self._clock,
            duration=duration,
        )
        self._clock += duration
        return self

    def video_segment(self, video_path: str, audio_path: str,
                      duration: float) -> "LessonBuilder":
        """A synchronized talking-head video+audio segment."""
        self._segment += 1
        sid = self._segment
        self._builder.audio_video(
            audio_source=audio_path, video_source=video_path,
            audio_id=f"LA{sid}", video_id=f"LV{sid}",
            startime=self._clock, duration=duration,
            note=f"video segment {sid}",
        )
        self._clock += duration
        return self

    def see_also(self, lesson_name: str, note: str = "") -> "LessonBuilder":
        self._builder.hyperlink(lesson_name, kind=LinkKind.EXPLORATIONAL,
                                note=note)
        return self

    def next_lesson(self, lesson_name: str) -> "LessonBuilder":
        """Sequential link, fired at the scenario's end."""
        self._builder.hyperlink(lesson_name, kind=LinkKind.SEQUENTIAL,
                                at_time=self._clock)
        return self

    def build(self) -> Lesson:
        return Lesson(name=self.name, topic=self.topic, tutor=self.tutor,
                      document=self._builder.build())


def make_course(
    course: str,
    topic: str,
    n_lessons: int,
    tutor: str = "tutor",
    segment_s: float = 8.0,
) -> list[Lesson]:
    """A sequentially-linked course of ``n_lessons`` lessons.

    Each lesson has an intro slide (image+narration) and a
    synchronized A/V segment; lesson k links sequentially to k+1 and
    exploratively back to lesson 1.
    """
    if n_lessons < 1:
        raise ValueError("a course needs at least one lesson")
    host = f"{course}-media"
    lessons: list[Lesson] = []
    for k in range(1, n_lessons + 1):
        lb = (
            LessonBuilder(f"{course}-{k}", f"{course.title()} — Lesson {k}",
                          topic, tutor=tutor)
            .intro(f"Lesson {k} of {n_lessons}")
            .section("Overview", f"This lesson covers part {k} of {course}.")
            .narrated_slide(f"{host}:/slides/{course}/{k}.gif",
                            f"{host}:/narration/{course}/{k}.au",
                            duration=segment_s)
            .video_segment(f"{host}:/video/{course}/{k}.mpg",
                           f"{host}:/audio/{course}/{k}.au",
                           duration=segment_s)
        )
        if k < n_lessons:
            lb.next_lesson(f"{course}-{k + 1}")
        if k > 1:
            lb.see_also(f"{course}-1", note="back to the beginning")
        lessons.append(lb.build())
    return lessons
