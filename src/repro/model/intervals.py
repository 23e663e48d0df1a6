"""Allen interval algebra over playout entries.

The paper's synchronization model builds on the interval-based
conceptual models of [LIT 90, LIT 93] (Little & Ghafoor): temporal
relationships among media objects are interval relations. This module
implements Allen's thirteen relations and classifies the pairwise
relations of a playout schedule — used by authoring tools to explain
a scenario's temporal structure and by tests as an independent oracle
for the schedule extractor.
"""

from __future__ import annotations

import enum

from repro.model.sync import PlayoutEntry

__all__ = ["AllenRelation", "relation", "inverse", "schedule_relations"]


class AllenRelation(enum.Enum):
    BEFORE = "before"
    MEETS = "meets"
    OVERLAPS = "overlaps"
    STARTS = "starts"
    DURING = "during"
    FINISHES = "finishes"
    EQUAL = "equal"
    # inverses
    AFTER = "after"
    MET_BY = "met-by"
    OVERLAPPED_BY = "overlapped-by"
    STARTED_BY = "started-by"
    CONTAINS = "contains"
    FINISHED_BY = "finished-by"


#: two endpoints closer than this coincide
EPS = 1e-9

_INVERSES = {
    AllenRelation.BEFORE: AllenRelation.AFTER,
    AllenRelation.MEETS: AllenRelation.MET_BY,
    AllenRelation.OVERLAPS: AllenRelation.OVERLAPPED_BY,
    AllenRelation.STARTS: AllenRelation.STARTED_BY,
    AllenRelation.DURING: AllenRelation.CONTAINS,
    AllenRelation.FINISHES: AllenRelation.FINISHED_BY,
    AllenRelation.EQUAL: AllenRelation.EQUAL,
}
_INVERSES.update({v: k for k, v in list(_INVERSES.items())})


def inverse(rel: AllenRelation) -> AllenRelation:
    """The converse relation: relation(y, x) given relation(x, y)."""
    return _INVERSES[rel]


def relation(x_start: float, x_end: float,
             y_start: float, y_end: float) -> AllenRelation:
    """Allen relation of interval X to interval Y.

    Intervals must be proper (end > start); instants are not modelled
    (the markup requires positive durations).
    """
    if x_end <= x_start or y_end <= y_start:
        raise ValueError("intervals must have positive length")

    def eq(a: float, b: float) -> bool:
        return abs(a - b) <= EPS

    if eq(x_start, y_start) and eq(x_end, y_end):
        return AllenRelation.EQUAL
    if eq(x_end, y_start):
        return AllenRelation.MEETS
    if eq(y_end, x_start):
        return AllenRelation.MET_BY
    if x_end < y_start:
        return AllenRelation.BEFORE
    if y_end < x_start:
        return AllenRelation.AFTER
    if eq(x_start, y_start):
        return AllenRelation.STARTS if x_end < y_end \
            else AllenRelation.STARTED_BY
    if eq(x_end, y_end):
        return AllenRelation.FINISHES if x_start > y_start \
            else AllenRelation.FINISHED_BY
    if x_start > y_start and x_end < y_end:
        return AllenRelation.DURING
    if y_start > x_start and y_end < x_end:
        return AllenRelation.CONTAINS
    if x_start < y_start:
        return AllenRelation.OVERLAPS
    return AllenRelation.OVERLAPPED_BY


def schedule_relations(
    entries: list[PlayoutEntry],
) -> dict[tuple[str, str], AllenRelation]:
    """Pairwise Allen relations of a playout schedule.

    Open-ended entries (no duration) are skipped — their intervals
    are unknown until the media's natural end.
    """
    closed = [e for e in entries if e.duration is not None]
    out: dict[tuple[str, str], AllenRelation] = {}
    for i, a in enumerate(closed):
        for b in closed[i + 1:]:
            out[(a.stream_id, b.stream_id)] = relation(
                a.start_time, a.start_time + a.duration,  # type: ignore[arg-type]
                b.start_time, b.start_time + b.duration,  # type: ignore[arg-type]
            )
    return out
