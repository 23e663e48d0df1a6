"""Token types and the keyword registry (paper Table 1).

The registry is the single source of truth for the language's
keywords; the Table 1 benchmark regenerates the paper's table from it
rather than from a hard-coded copy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["TokenKind", "Token", "KeywordInfo", "KEYWORDS", "keyword_table_rows"]


class TokenKind(enum.Enum):
    TAG_OPEN = "tag-open"  # <KEYWORD
    TAG_CLOSE = "tag-close"  # </KEYWORD
    TEXT = "text"  # raw text run between tags
    EOF = "eof"


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    value: str  # keyword name for tags, raw text for TEXT
    line: int
    column: int


@dataclass(frozen=True, slots=True)
class KeywordInfo:
    """One keyword with its Table 1 description and grammar role."""

    name: str
    description: str
    is_element: bool  # appears as a <TAG>
    is_attribute: bool  # appears as KEY=value inside an element body


#: The language keywords, following paper Table 1 (which lists
#: TITLE / H1 H2 H3 / PAR SEP / TEXT IMG AU VI / SOURCE ID /
#: STARTIME DURATION / I B U / NOTE) plus the keywords the grammar in
#: Figure 1 introduces (AU_VI, HLINK, AT, HEIGHT, WIDTH, WHERE).
KEYWORDS: dict[str, KeywordInfo] = {
    k.name: k
    for k in [
        KeywordInfo("TITLE", "Document title indicator", True, False),
        KeywordInfo("H1", "Heading indicator (level 1)", True, False),
        KeywordInfo("H2", "Heading indicator (level 2)", True, False),
        KeywordInfo("H3", "Heading indicator (level 3)", True, False),
        KeywordInfo("PAR", "Paragraph indicator", True, False),
        KeywordInfo("SEP", "Separator indicator", True, False),
        KeywordInfo("TEXT", "Media type indicator: text", True, False),
        KeywordInfo("IMG", "Media type indicator: image", True, False),
        KeywordInfo("AU", "Media type indicator: audio", True, False),
        KeywordInfo("VI", "Media type indicator: video", True, False),
        KeywordInfo("AU_VI", "Media type indicator: synchronized audio+video",
                    True, False),
        KeywordInfo("SOURCE", "Media source indicator", False, True),
        KeywordInfo("ID", "Media id indicator", False, True),
        KeywordInfo(
            "STARTIME", "Media time characteristics indicator: relative start time",
            False, True,
        ),
        KeywordInfo(
            "DURATION", "Media time characteristics indicator: playout duration",
            False, True,
        ),
        KeywordInfo("B", "Boldface characters", True, False),
        KeywordInfo("I", "Italics characters", True, False),
        KeywordInfo("U", "Underline characters", True, False),
        KeywordInfo("NOTE", "Annotation indicator", False, True),
        KeywordInfo("HLINK", "Hyperlink indicator", True, False),
        KeywordInfo("AT", "Timed-activation indicator for hyperlinks", False,
                    True),
        KeywordInfo("HEIGHT", "Image height placement attribute", False, True),
        KeywordInfo("WIDTH", "Image width placement attribute", False, True),
        KeywordInfo("WHERE", "Media placement (display coordinates) attribute",
                    False, True),
        KeywordInfo("KIND", "Hyperlink kind: sequential or explorational",
                    False, True),
        KeywordInfo("REPEAT", "Media repetition (loop) indicator — §7 extension",
                    False, True),
    ]
}

#: Element keywords (usable as tags).
ELEMENT_KEYWORDS = frozenset(k for k, v in KEYWORDS.items() if v.is_element)
#: Attribute keywords (usable as KEY=value in element bodies).
ATTRIBUTE_KEYWORDS = frozenset(k for k, v in KEYWORDS.items() if v.is_attribute)


def keyword_table_rows() -> list[tuple[str, str]]:
    """Rows of the paper's Table 1 regenerated from the registry.

    Groups keywords the way the paper does (one row per related
    keyword family).
    """
    rows: list[tuple[str, str]] = [
        ("TITLE", KEYWORDS["TITLE"].description),
        ("H1, H2, H3", "Heading indicators"),
        ("PAR, SEP", "Paragraph and separator indicators"),
        ("TEXT, IMG, AU, VI, AU_VI", "Media type indicators"),
        ("SOURCE, ID", "Media source and id indicators"),
        ("STARTIME, DURATION, REPEAT", "Media time characteristics "
                                       "indicators (REPEAT: §7 extension)"),
        ("I, B, U", "Italics, boldface, underline characters"),
        ("NOTE", KEYWORDS["NOTE"].description),
        ("HLINK, AT, KIND", "Hyperlink, timed-activation and link-kind "
                            "indicators"),
        ("HEIGHT, WIDTH, WHERE", "Media placement attributes"),
    ]
    # Sanity: every keyword named in a row exists in the registry.
    for names, _ in rows:
        for name in names.replace(",", " ").split():
            assert name in KEYWORDS, f"Table 1 row references unknown keyword {name}"
    return rows
