"""Merge laws for sharded population results.

Two layers, with different algebraic strength:

* **Population documents** (outcome lists) merge exactly: outcomes
  concatenate and re-sort by global session index. Sorted union is
  associative and commutative with :func:`empty_population_doc` as
  identity — property-tested over arbitrary splits and orders.

* **Telemetry** merges are mathematically associative but sum
  floats, and float addition is not bit-exact under re-association.
  The final merge therefore always folds cell documents in
  **canonical order** (sorted by cell index), never incrementally per
  shard — so any permutation of any partition of the cells produces
  byte-identical merged telemetry, which is what makes the population
  digest shard-count-invariant. The series merge first
  (:func:`~repro.obs.timeseries.merge_series_docs`); the service
  documents then merge their counters and read their loads off the
  merged series (:func:`~repro.obs.service_metrics.merge_service_docs`),
  so the two never disagree.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

__all__ = [
    "empty_population_doc",
    "session_index",
    "merge_population_docs",
    "merge_cell_docs",
]


def empty_population_doc() -> dict[str, Any]:
    """The merge identity: no outcomes."""
    return {"outcomes": []}


def session_index(outcome: dict[str, Any]) -> int:
    """Global session index from an outcome doc (``sess-17`` -> 17)."""
    sid = str(outcome.get("session_id", ""))
    try:
        return int(sid.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        raise ValueError(f"outcome has no global session id: {sid!r}") \
            from None


def _sorted_outcomes(outcome_lists) -> list[dict[str, Any]]:
    """Every list's outcomes in one list, sorted by global session
    index, each index read once and allowed once."""
    keyed = [(session_index(o), o) for outcomes in outcome_lists
             for o in outcomes]
    keyed.sort(key=itemgetter(0))
    for (idx, _), (nxt, _) in zip(keyed, keyed[1:]):
        if idx == nxt:
            raise ValueError(
                f"duplicate session index {idx} in population merge")
    return [o for _, o in keyed]


def merge_population_docs(a: dict[str, Any],
                          b: dict[str, Any]) -> dict[str, Any]:
    """Exact merge of two population docs (see module docstring)."""
    return {"outcomes": _sorted_outcomes(
        (a.get("outcomes", []), b.get("outcomes", [])))}


def merge_cell_docs(cell_docs: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge cell documents into one population doc, canonically.

    Cells are sorted by index first, so the result is invariant under
    any permutation (or shard-partitioning) of the input — including
    the float-summing telemetry merges. The outcomes are sorted once:
    the fold of :func:`merge_population_docs` over the cells, in one
    pass.
    """
    if not cell_docs:
        raise ValueError("merge needs at least one cell document")
    docs = sorted(cell_docs, key=lambda d: int(d["cell"]))
    seen_cells: set[int] = set()
    for d in docs:
        c = int(d["cell"])
        if c in seen_cells:
            raise ValueError(f"duplicate cell {c} in merge")
        seen_cells.add(c)

    cells = [d["population"] for d in docs]
    merged: dict[str, Any] = {"outcomes": _sorted_outcomes(
        c.get("outcomes", []) for c in cells)}
    # a cell's service document is read off its series: both or neither
    series_docs = [c["timeseries"] for c in cells if c.get("timeseries")]
    if series_docs:
        from repro.obs.service_metrics import merge_service_docs
        from repro.obs.timeseries import merge_series_docs

        series = merge_series_docs(series_docs)
        merged["service"] = merge_service_docs(
            [c["service"] for c in cells], series)
        merged["timeseries"] = series
    return merged
