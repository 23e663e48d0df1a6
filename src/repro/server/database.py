"""The multimedia database: presentation scenarios and topics.

"The internal structural presentation of a hypermedia object is
stored in a multimedia server, while the inline data that compose the
document may reside on their own media servers" (§2) — so the
database stores *markup* (the scenario text file) plus the topic
catalogue and a full-text index over titles, headings and text blocks
for the §6.2.2 search primitive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.hml.ast import Heading, HmlDocument, TextBlock
from repro.hml.parser import parse

__all__ = ["StoredDocument", "MultimediaDatabase"]


@dataclass(slots=True)
class StoredDocument:
    name: str
    markup: str
    topic: str
    document: HmlDocument = field(repr=False, default=None)  # type: ignore

    @property
    def size_bytes(self) -> int:
        return len(self.markup.encode("utf-8"))


def _terms(text: str) -> set[str]:
    return {w.lower() for w in re.findall(r"[A-Za-z0-9]+", text) if len(w) > 1}


class MultimediaDatabase:
    """Document store with topic catalogue and full-text search."""

    def __init__(self) -> None:
        self._docs: dict[str, StoredDocument] = {}
        self._index: dict[str, set[str]] = {}  # term -> doc names

    # -- storage ---------------------------------------------------------
    def add_markup(self, name: str, markup: str, topic: str = "general") -> None:
        """Store a document from markup text (parsed for indexing)."""
        doc = parse(markup)
        if not name.strip():
            raise ValueError("document name must be non-empty")
        if name in self._docs:
            raise ValueError(f"document {name!r} already stored")
        self._docs[name] = StoredDocument(name=name, markup=markup,
                                          topic=topic, document=doc)
        for term in self._text_terms(doc):
            self._index.setdefault(term, set()).add(name)

    @staticmethod
    def _text_terms(doc: HmlDocument) -> set[str]:
        terms = _terms(doc.title)
        for e in doc.elements:
            if isinstance(e, TextBlock):
                terms |= _terms(e.plain_text)
            elif isinstance(e, Heading):
                terms |= _terms(e.text)
        return terms

    # -- retrieval -------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._docs

    def __len__(self) -> int:
        return len(self._docs)

    def get(self, name: str) -> StoredDocument:
        try:
            return self._docs[name]
        except KeyError:
            raise KeyError(f"no document {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._docs)

    def topics(self) -> list[str]:
        """The service's list of available topics (§5)."""
        return sorted({d.topic for d in self._docs.values()})

    # -- search -----------------------------------------------------------
    def search(self, token: str) -> list[str]:
        """Documents whose title/headings/text contain the token.

        "All the text documents stored in that server are scanned ...
        only the lessons which contain the item of interest and the
        server location are transmitted" (§6.2.2).
        """
        token = token.strip().lower()
        if not token:
            return []
        exact = self._index.get(token, set())
        prefix = {
            name
            for term, names in self._index.items()
            if term.startswith(token)
            for name in names
        }
        return sorted(exact | prefix)
