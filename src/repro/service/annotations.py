"""User annotations on viewed documents (§5).

"The user may also annotate the selected document with his own
remarks." Annotations are the user's local remarks, attached to a
document and optionally to one of its media components, timestamped
in both wall time and presentation time.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Annotation", "AnnotationStore"]


@dataclass(frozen=True, slots=True)
class Annotation:
    document: str
    text: str
    author: str
    created_at: float  # simulation wall time
    element_id: str | None = None  # None: the whole document
    presentation_time_s: float | None = None  # where in the scenario

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("annotation text must be non-empty")


class AnnotationStore:
    """The user's private annotation collection."""

    def __init__(self, author: str) -> None:
        self.author = author
        self._by_doc: dict[str, list[Annotation]] = {}

    def annotate(
        self,
        document: str,
        text: str,
        now: float,
        element_id: str | None = None,
        presentation_time_s: float | None = None,
    ) -> Annotation:
        ann = Annotation(
            document=document, text=text, author=self.author,
            created_at=now, element_id=element_id,
            presentation_time_s=presentation_time_s,
        )
        self._by_doc.setdefault(document, []).append(ann)
        return ann

    def for_document(self, document: str) -> list[Annotation]:
        return list(self._by_doc.get(document, []))

    def documents(self) -> list[str]:
        return sorted(d for d, anns in self._by_doc.items() if anns)

    def __len__(self) -> int:
        return sum(len(a) for a in self._by_doc.values())
